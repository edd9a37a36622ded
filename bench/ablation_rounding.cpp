// Ablation of the LP-relaxation rounding strategy (Section V.B Step 1 text:
// the paper fixes variables with value > 0.95 and notes that randomized
// rounding "did not work as well").
//
// Compares, on one fixed Step-2 model at a fixed st_target:
//   - iterated dive (repo default),
//   - the paper's single threshold-fix pass + residual ILP,
//   - randomized rounding + residual ILP,
//   - null objective vs min-perturbation objective for the dive.
#include <cstdio>

#include "core/report.h"
#include "core/st_target.h"
#include "timing/paths.h"
#include "util/ascii.h"

using namespace cgraf;

int main() {
  std::printf("== Ablation: LP rounding strategy ==\n\n");
  const auto specs = workloads::table1_specs(false);
  const auto bench = workloads::generate_benchmark(specs[12]);  // B13
  const Design& design = bench.design;
  const timing::CombGraph graph(design);
  const timing::StaResult sta = run_sta(graph, bench.baseline);

  const core::PathSets paths =
      core::derive_path_sets(graph, bench.baseline, core::RemapOptions{});
  const auto candidates = core::compute_candidates(
      design, bench.baseline, paths.frozen, paths.monitored, sta.cpd_ns);
  const core::StTargetResult st = core::find_st_target(design, bench.baseline);
  const double target = st.st_target + 0.30 * (st.st_up - st.st_target);

  auto build = [&](core::ObjectiveMode obj) {
    core::RemapModelSpec spec;
    spec.design = &design;
    spec.base = &bench.baseline;
    spec.frozen = paths.frozen;
    spec.candidates = candidates;
    spec.st_target = target;
    spec.monitored = &paths.monitored;
    spec.cpd_ns = sta.cpd_ns;
    spec.objective = obj;
    return build_remap_model(spec);
  };
  const core::RemapModel rm_pert = build(core::ObjectiveMode::kMinPerturbation);
  const core::RemapModel rm_null = build(core::ObjectiveMode::kNull);

  std::printf("benchmark %s, st_target=%.3f, %d binaries, %d path rows\n\n",
              bench.spec.name.c_str(), target, rm_pert.num_binary_vars,
              rm_pert.num_path_rows);

  AsciiTable table({"strategy", "status", "fixed by LP", "dive rounds",
                    "B&B nodes", "seconds"});
  auto run = [&](const char* name, const core::RemapModel& rm,
                 core::RoundingStrategy strategy) {
    core::TwoStepOptions opts;
    opts.strategy = strategy;
    opts.mip.stop_at_first_incumbent = true;
    opts.mip.max_nodes = 20000;
    opts.mip.time_limit_s = 60.0;
    // One B&B worker: the node counts are then the same on every run.
    opts.mip.num_threads = 1;
    const auto r = solve_two_step(rm, opts);
    table.add_row({name, milp::to_string(r.status),
                   std::to_string(r.stats.vars_fixed),
                   std::to_string(r.stats.dive_rounds),
                   std::to_string(r.stats.mip_nodes),
                   fmt_double(r.stats.lp_seconds + r.stats.mip_seconds, 2)});
    std::printf(".");
    std::fflush(stdout);
  };

  run("iterated dive (default)", rm_pert,
      core::RoundingStrategy::kIterativeDive);
  run("iterated dive, null obj", rm_null,
      core::RoundingStrategy::kIterativeDive);
  run("threshold-fix once (paper)", rm_pert,
      core::RoundingStrategy::kThresholdFixOnce);
  run("randomized rounding", rm_pert,
      core::RoundingStrategy::kRandomizedRound);
  std::printf("\n\n%s\n", table.render().c_str());
  return 0;
}
