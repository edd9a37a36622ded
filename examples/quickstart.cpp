// Quickstart: the full CGRAF pipeline on Table I's benchmark B13.
//
//   generate the multi-context netlist  ->  aging-unaware baseline
//   placement (musketeer_lite)  ->  aging-aware MILP re-mapping  ->  MTTF.
//
// The in-process form of what `cgraf_cli gen --spec B13`, `place` and
// `remap` do over text files (`place` defaults to another placer seed, so
// its baseline differs). Exits 1 if the re-mapped floorplan's critical path
// grew.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "cgrra/stress.h"
#include "core/remapper.h"
#include "workloads/suite.h"

int main() {
  using namespace cgraf;

  // 1. The benchmark: B13 of the Table I grid (8 contexts on a 4x4 fabric at
  // medium usage). The generator emits the mapped netlist and places it with
  // the aging-unaware baseline placer, the commercial-flow stand-in.
  workloads::BenchmarkSpec spec;
  for (const auto& s : workloads::table1_specs()) {
    if (s.name == "B13") spec = s;
  }
  const workloads::GeneratedBenchmark bench =
      workloads::generate_benchmark(spec);
  const Design& design = bench.design;
  std::printf("benchmark %s: %d contexts, %dx%d fabric, %d ops (%s usage)\n",
              spec.name.c_str(), design.num_contexts, design.fabric.rows(),
              design.fabric.cols(), bench.total_ops, to_string(spec.band));

  // 2. The baseline packs every context toward the fabric origin, so the
  // same corner PEs accumulate stress in every cycle.
  const StressMap stress = compute_stress(design, bench.baseline);
  std::printf("baseline: max accumulated stress %.3f (fabric avg %.3f)\n",
              stress.max_accumulated(), stress.avg_accumulated());

  // 3. Aging-aware re-mapping (Algorithm 1, Rotate variant).
  const core::RemapResult result =
      aging_aware_remap(design, bench.baseline, core::RemapOptions{});

  std::printf("\n== result ==\n");
  std::printf("CPD: %.3f ns -> %.3f ns (clock %.1f ns)  [must not grow]\n",
              result.cpd_before_ns, result.cpd_after_ns,
              design.fabric.clock_period_ns());
  std::printf("max stress: %.3f -> %.3f\n", result.st_max_before,
              result.st_max_after);
  std::printf("MTTF: %.2f years -> %.2f years  =>  %.2fx\n",
              result.mttf_before.mttf_years, result.mttf_after.mttf_years,
              result.mttf_gain);
  std::printf("(%s)\n", result.note.c_str());
  return result.cpd_after_ns > result.cpd_before_ns ? 1 : 0;
}
