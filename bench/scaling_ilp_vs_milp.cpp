// Reproduces the paper's Section V.A scaling claim: the monolithic one-shot
// ILP over M x N x C binaries stops scaling (the authors aborted CPLEX
// after 5 days on large benchmarks), while the two-step relaxation (LP ->
// pre-map -> residual integer search) solves the same instances quickly.
//
// Both strategies get the same Step-2 model (frozen critical paths +
// monitored-path budgets) at the same st_target; the one-shot ILP runs
// under a wall-clock budget per instance and reports a timeout where the
// paper reports "no solution within 5 days".
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cgrra/stress.h"
#include "core/report.h"
#include "core/st_target.h"
#include "obs/bench_compare.h"
#include "obs/build_info.h"
#include "obs/json_writer.h"
#include "util/ascii.h"

using namespace cgraf;

namespace {

struct Row {
  std::string name;
  int vars = 0;
  milp::SolveStatus ilp_status = milp::SolveStatus::kNumericalError;
  double ilp_seconds = 0.0;
  long ilp_nodes = 0;
  milp::SolveStatus dive_status = milp::SolveStatus::kNumericalError;
  double dive_seconds = 0.0;
  double ilp_obj = 0.0;
  core::TwoStepStats ilp_stats;
  core::TwoStepStats dive_stats;
  double dive_max_stress = 0.0;
  bool dive_certified = false;  // the dive's solution passed the certifier
};

Row run_one(const workloads::BenchmarkSpec& spec, double ilp_budget_s,
            int threads) {
  const auto bench = workloads::generate_benchmark(spec);
  const Design& design = bench.design;
  const timing::CombGraph graph(design);
  const timing::StaResult sta = run_sta(graph, bench.baseline);

  // Shared Step-2 model pieces (Freeze mode, default margins).
  const core::PathSets paths =
      core::derive_path_sets(graph, bench.baseline, core::RemapOptions{});
  const auto candidates = core::compute_candidates(
      design, bench.baseline, paths.frozen, paths.monitored, sta.cpd_ns);

  // A mildly relaxed target so both solvers search a feasible region: the
  // midpoint of Step 1's bracket [ST_low, ST_up].
  const core::StTargetResult st =
      core::find_st_target(design, bench.baseline);
  const double target = st.st_low + 0.5 * (st.st_up - st.st_low);

  core::RemapModelSpec mspec;
  mspec.design = &design;
  mspec.base = &bench.baseline;
  mspec.frozen = paths.frozen;
  mspec.candidates = candidates;
  mspec.st_target = target;
  mspec.monitored = &paths.monitored;
  mspec.cpd_ns = sta.cpd_ns;
  const core::RemapModel rm = build_remap_model(mspec);

  Row row;
  row.name = spec.name + " (C" + std::to_string(spec.contexts) + "F" +
             std::to_string(spec.fabric_dim) + ", " +
             std::to_string(bench.total_ops) + " ops)";
  row.vars = rm.num_binary_vars;

  {  // One-shot ILP under a wall-clock budget.
    core::TwoStepOptions opts;
    opts.strategy = core::RoundingStrategy::kNone;
    opts.mip.stop_at_first_incumbent = true;
    opts.mip.time_limit_s = ilp_budget_s;
    opts.mip.max_nodes = 1000000000;
    opts.mip.num_threads = threads;
    const auto r = solve_two_step(rm, opts);
    row.ilp_status = r.status;
    row.ilp_seconds = r.stats.mip_seconds;
    row.ilp_nodes = r.stats.mip_nodes;
    row.ilp_stats = r.stats;
    if (!r.floorplan.op_to_pe.empty())
      row.ilp_obj = compute_stress(design, r.floorplan).max_accumulated();
  }
  {  // Two-step relaxation (iterated dive), independently certified.
    core::TwoStepOptions opts;
    opts.mip.num_threads = threads;
    opts.verify.enabled = true;
    const auto r = solve_two_step(rm, opts);
    row.dive_status = r.status;
    row.dive_seconds = r.stats.lp_seconds + r.stats.mip_seconds;
    row.dive_stats = r.stats;
    row.dive_certified = r.certified;
    if (!r.floorplan.op_to_pe.empty())
      row.dive_max_stress =
          compute_stress(design, r.floorplan).max_accumulated();
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  double budget = 60.0;
  if (argc > 1) {
    char* end = nullptr;
    budget = std::strtod(argv[1], &end);
    if (end == argv[1] || *end != '\0' || !(budget > 0)) {
      std::fprintf(stderr, "bad wall-clock budget '%s'\n", argv[1]);
      return 2;
    }
  }
  int threads = 0;  // 0 = hardware_concurrency
  if (argc > 2) {
    char* end = nullptr;
    const long t = std::strtol(argv[2], &end, 10);
    if (end == argv[2] || *end != '\0' || t < 0 || t > 4096) {
      std::fprintf(stderr, "bad thread count '%s'\n", argv[2]);
      return 2;
    }
    threads = static_cast<int>(t);
  }
  const int threads_eff =
      threads > 0 ? threads
                  : std::max(1u, std::thread::hardware_concurrency());
  std::printf("== Section V.A: one-shot ILP vs two-step MILP ==\n");
  std::printf("(one-shot ILP wall-clock budget: %.0fs per instance; the "
              "paper's was 5 days; B&B threads: %d)\n\n",
              budget, threads_eff);

  std::vector<workloads::BenchmarkSpec> sweep;
  for (const auto& spec : workloads::table1_specs(false)) {
    if (spec.band == workloads::UsageBand::kMedium) sweep.push_back(spec);
  }

  AsciiTable table({"instance", "binaries", "one-shot ILP", "ILP nodes",
                    "two-step", "speedup"});
  std::vector<Row> rows;
  for (const auto& spec : sweep) {
    const Row row = run_one(spec, budget, threads);
    rows.push_back(row);
    const bool ilp_solved = row.ilp_status == milp::SolveStatus::kOptimal ||
                            row.ilp_status == milp::SolveStatus::kFeasible;
    table.add_row(
        {row.name, std::to_string(row.vars),
         ilp_solved ? fmt_double(row.ilp_seconds, 1) + "s"
                    : std::string("TIMEOUT (") +
                          milp::to_string(row.ilp_status) + ")",
         std::to_string(row.ilp_nodes), fmt_double(row.dive_seconds, 1) + "s",
         ilp_solved ? fmt_double(row.ilp_seconds /
                                     std::max(1e-3, row.dive_seconds),
                                 1) + "x"
                    : std::string(">") +
                          fmt_double(budget / std::max(1e-3,
                                                       row.dive_seconds),
                                     0) + "x"});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n%s\n", table.render().c_str());

  std::printf("solver stages, largest instance (%s):\n%s\n",
              rows.back().name.c_str(),
              core::format_solver_stats(rows.back().ilp_stats).c_str());

  // One machine-readable line per instance for the BENCH_*.json trajectory.
  for (const Row& row : rows) {
    obs::JsonWriter w;
    w.begin_object()
        .field("case", "scaling_ilp_vs_milp")
        .field("instance", row.name)
        .field("binaries", row.vars)
        .field("threads", threads_eff)
        .field("ilp_status", milp::to_string(row.ilp_status))
        .field("ilp_wall_seconds", row.ilp_seconds)
        .field("ilp_nodes", row.ilp_nodes)
        .field("ilp_max_stress", row.ilp_obj)
        .field("dive_status", milp::to_string(row.dive_status))
        .field("dive_wall_seconds", row.dive_seconds)
        .field("dive_max_stress", row.dive_max_stress)
        .field("dive_certified", row.dive_certified)
        .raw_field("ilp", "{" + core::solver_stats_json(row.ilp_stats) + "}")
        .raw_field("dive",
                   "{" + core::solver_stats_json(row.dive_stats) + "}");
    w.field("schema_version", obs::kBenchJsonSchemaVersion);
    obs::append_build_info_fields(w);
    w.end_object();
    std::printf("CGRAF_BENCH_JSON %s\n", w.str().c_str());
  }
  return 0;
}
