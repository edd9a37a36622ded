// Ablation of Step 2.1 (critical-path rotation).
//
// Table I has Rotate below Freeze on six rows (EXPERIMENTS.md). This bench
// isolates the rotation step on the high-usage benchmarks up to 6x6, where
// frozen critical paths bite hardest, with three remaps each:
//   - Freeze        : no rotation (orientation fixed to identity),
//   - Rotate(1)     : rotation_restarts = 1, a plan scored over the
//                     identity and one random diversity-rule draw,
//   - Rotate(12)    : the default, the identity and 12 draws.
// On C4 rows the planner enumerates all 8^4 plans whatever the restart
// count, so there Rotate(1) and Rotate(12) are the same run. The table also
// reports the stress-weighted frozen-PE overlap that the planner minimizes,
// un-rotated and for a 12-restart plan, to show whether a lower overlap
// buys a higher gain.
#include <cstdio>

#include "core/report.h"
#include "timing/paths.h"
#include "util/ascii.h"

using namespace cgraf;

int main() {
  std::printf("== Ablation: critical-path rotation (Step 2.1) ==\n\n");
  AsciiTable table({"bench", "config", "frozen ops", "overlap freeze",
                    "overlap rotate", "Freeze x", "Rotate(1) x",
                    "Rotate(12) x"});

  for (const auto& spec : workloads::table1_specs(false)) {
    if (spec.band != workloads::UsageBand::kHigh) continue;
    if (spec.fabric_dim > 6) continue;  // keep the ablation quick
    const auto bench = workloads::generate_benchmark(spec);

    // Frozen groups and their overlap under identity vs planned rotation.
    const timing::CombGraph graph(bench.design);
    const core::PathSets paths =
        core::derive_path_sets(graph, bench.baseline, core::RemapOptions{});
    int frozen_total = 0;
    for (const char f : paths.frozen) frozen_total += f;
    auto overlap_of = [&](const Floorplan& fp) {
      std::vector<double> pe(static_cast<std::size_t>(
                                 bench.design.fabric.num_pes()),
                             0.0);
      for (const auto& group : paths.frozen_by_context)
        for (const int op : group)
          pe[static_cast<std::size_t>(fp.pe_of(op))] += op_stress(
              bench.design.ops[static_cast<std::size_t>(op)],
              bench.design.fabric);
      double cost = 0.0;
      for (const double s : pe) cost += s * s;
      return cost;
    };
    core::RotationOptions ropts;
    ropts.seed = spec.seed;
    const auto rot = rotate_critical_paths(bench.design, bench.baseline,
                                           paths.frozen_by_context, ropts);

    core::RemapOptions freeze;
    freeze.mode = core::RemapMode::kFreeze;
    const auto r_freeze = aging_aware_remap(bench.design, bench.baseline,
                                            freeze);
    core::RemapOptions rot1;
    rot1.mode = core::RemapMode::kRotate;
    rot1.rotation_restarts = 1;
    const auto r_rot1 = aging_aware_remap(bench.design, bench.baseline, rot1);
    core::RemapOptions rot12;
    rot12.mode = core::RemapMode::kRotate;
    const auto r_rot12 = aging_aware_remap(bench.design, bench.baseline,
                                           rot12);

    table.add_row({spec.name,
                   "C" + std::to_string(spec.contexts) + "F" +
                       std::to_string(spec.fabric_dim),
                   std::to_string(frozen_total),
                   fmt_double(overlap_of(bench.baseline), 2),
                   fmt_double(rot.overlap_cost, 2),
                   fmt_double(r_freeze.mttf_gain, 2),
                   fmt_double(r_rot1.mttf_gain, 2),
                   fmt_double(r_rot12.mttf_gain, 2)});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n%s\n", table.render().c_str());
  return 0;
}
