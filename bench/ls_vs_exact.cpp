// Heuristic-vs-exact bench: quality gap on a quick Table-I subset.
//
// One row per benchmark on stdout (CGRAF_BENCH_JSON, scraped by cgraf_bench):
//
//   ls_gap_<B>:  both solvers walk the same descending stress-target ladder
//                (the protocol of tests/core/ls_quality_gap_test.cpp, with
//                bench-sized budgets); the row records each side's tightest
//                feasible target, the relative gap and the LS work counters.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cgrra/stress.h"
#include "core/local_search.h"
#include "core/probe_session.h"
#include "obs/bench_compare.h"
#include "obs/build_info.h"
#include "obs/json_writer.h"
#include "util/clock.h"
#include "util/geometry.h"
#include "workloads/suite.h"

namespace {

using namespace cgraf;

void append_meta_fields(obs::JsonWriter& w) {
  w.field("schema_version", obs::kBenchJsonSchemaVersion);
  obs::append_build_info_fields(w);
}

constexpr double kRungs[] = {1.0, 0.8, 0.62, 0.47, 0.35, 0.25, 0.18};
constexpr int kNumRungs = static_cast<int>(sizeof(kRungs) / sizeof(kRungs[0]));

std::vector<std::vector<int>> radius_candidates(const Design& design,
                                                const Floorplan& base,
                                                int radius) {
  std::vector<std::vector<int>> cand(design.ops.size());
  for (std::size_t op = 0; op < design.ops.size(); ++op) {
    const Point home = design.fabric.loc(base.pe_of(static_cast<int>(op)));
    for (int pe = 0; pe < design.fabric.num_pes(); ++pe) {
      if (manhattan(design.fabric.loc(pe), home) <= radius)
        cand[op].push_back(pe);
    }
  }
  return cand;
}

void run_gap_case(const workloads::BenchmarkSpec& bspec) {
  const double t0 = now_seconds();
  const workloads::GeneratedBenchmark bench =
      workloads::generate_benchmark(bspec);
  const StressMap base_stress = compute_stress(bench.design, bench.baseline);
  const double st_up = base_stress.max_accumulated();
  const double st_low = base_stress.avg_accumulated();

  core::RemapModelSpec spec;
  spec.design = &bench.design;
  spec.base = &bench.baseline;
  spec.frozen.assign(bench.design.ops.size(), 0);
  spec.candidates = radius_candidates(bench.design, bench.baseline, 2);

  auto rung = [&](int k) { return st_low + kRungs[k] * (st_up - st_low); };

  core::TwoStepOptions solver;
  solver.mip.stop_at_first_incumbent = true;
  solver.mip.max_nodes = 2000;
  solver.mip.time_limit_s = 5.0;
  core::ProbeSession session(spec, solver);
  double exact_target = rung(0);
  for (int k = 0; k < kNumRungs; ++k) {
    if (session.solve(rung(k)).status != milp::SolveStatus::kOptimal) break;
    exact_target = rung(k);
  }

  core::LocalSearchOptions opts;
  opts.seed = bspec.seed ^ 0x15c4ULL;
  opts.max_iters = 2000;
  opts.restarts = 3;
  double ls_target = rung(0);
  core::LocalSearchStats ls_stats;
  for (int k = 0; k < kNumRungs; ++k) {
    core::RemapModelSpec ls_spec = spec;
    ls_spec.st_target = rung(k);
    const core::LocalSearchResult r = core::local_search_remap(ls_spec, opts);
    ls_stats.add(r.stats);
    if (!r.feasible) break;
    ls_target = rung(k);
  }

  const double gap =
      std::max(0.0, ls_target - exact_target) / std::max(exact_target, 1e-12);
  obs::JsonWriter w;
  w.begin_object()
      .field("case", ("ls_gap_" + bspec.name).c_str())
      .field("total_ops", static_cast<long>(bench.total_ops))
      .field("exact_target", exact_target)
      .field("ls_target", ls_target)
      .field("gap", gap)
      .field("ls_moves_examined", ls_stats.moves_examined)
      .field("ls_moves_accepted", ls_stats.moves_accepted)
      .field("ls_shifts_accepted", ls_stats.shifts_accepted)
      .field("ls_swaps_accepted", ls_stats.swaps_accepted)
      .field("ls_restarts_run", ls_stats.restarts_run)
      .field("ls_oracle_calls", ls_stats.oracle_calls)
      .field("ls_oracle_rejections", ls_stats.oracle_rejections)
      .field("ls_start_repairs", ls_stats.start_repairs)
      .field("ls_seconds", ls_stats.seconds)
      .field("wall_seconds", now_seconds() - t0)
      .field("threads", 1L);
  append_meta_fields(w);
  w.end_object();
  std::printf("CGRAF_BENCH_JSON %s\n", w.str().c_str());
}

}  // namespace

int main() {
  // Quick deterministic subset: the 4x4-fabric specs of every band with up
  // to 8 contexts (bench-sized exact solves; the slow test covers all 27).
  int taken = 0;
  for (const workloads::BenchmarkSpec& spec : workloads::table1_specs()) {
    if (spec.fabric_dim != 4 || spec.contexts > 8) continue;
    if (++taken > 4) break;
    run_gap_case(spec);
  }
  return 0;
}
