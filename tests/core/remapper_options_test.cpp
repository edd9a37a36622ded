// Behavioural coverage of the RemapOptions knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/remapper.h"
#include "obs/event_log.h"
#include "obs/json_reader.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

workloads::GeneratedBenchmark bench_for(std::uint64_t seed) {
  workloads::BenchmarkSpec spec;
  spec.name = "opt";
  spec.contexts = 4;
  spec.fabric_dim = 4;
  spec.usage = 0.45;
  spec.seed = seed;
  return workloads::generate_benchmark(spec);
}

// remap_e2e's ls_fleet instance B25 variant 2 under Rotate: every attempt
// fails, so the remap ends on the baseline, which still gets a certificate.
TEST(RemapperOptions, NoImprovingFloorplanKeepsCertifiedBaseline) {
  workloads::BenchmarkSpec spec;
  for (const workloads::BenchmarkSpec& s : workloads::table1_specs())
    if (s.name == "B25") spec = s;
  ASSERT_EQ(spec.name, "B25");
  spec.seed = 0x83676b41e6cf0a62ULL;
  const auto bench = workloads::generate_benchmark(spec);
  RemapOptions opts;
  opts.mode = RemapMode::kRotate;
  opts.strategy = SolveStrategy::kLocalSearch;
  opts.seed = spec.seed;
  opts.ls.seed = spec.seed;
  opts.verify.enabled = true;
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  EXPECT_FALSE(r.improved);
  EXPECT_GT(r.outer_iterations, 0);
  EXPECT_EQ(r.floorplan.op_to_pe, bench.baseline.op_to_pe);
  EXPECT_DOUBLE_EQ(r.mttf_gain, 1.0);
  EXPECT_TRUE(r.certified);
  EXPECT_EQ(r.cpd_after_ns, r.cpd_before_ns);
  EXPECT_EQ(r.st_max_after, r.st_max_before);
}

// The portfolio runs the exact side only on attempts where the local
// search found no floorplan. On B13 Rotate (RemapPins' options) the local
// search wins four attempts and fails one, so both branches run.
TEST(RemapperOptions, PortfolioRunsTheExactSideOnlyWhereLocalSearchFails) {
  workloads::BenchmarkSpec spec;
  for (const workloads::BenchmarkSpec& s : workloads::table1_specs())
    if (s.name == "B13") spec = s;
  ASSERT_EQ(spec.name, "B13");
  const auto bench = workloads::generate_benchmark(spec);
  obs::EventLog log;
  log.open_memory();
  RemapOptions opts;
  opts.mode = RemapMode::kRotate;
  opts.strategy = SolveStrategy::kPortfolio;
  opts.solver.mip.num_threads = 1;
  opts.seed = spec.seed;
  opts.ls.seed = spec.seed;
  opts.verify.enabled = true;
  opts.solver.events = &log;
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  log.close();

  // One twostep.solve record per exact run (the presearch's LP-only probes
  // leave none).
  long ls_wins = 0, exact_runs = 0, two_step_solves = 0;
  std::vector<std::string> statuses;
  std::istringstream lines(log.memory_contents());
  for (std::string line; std::getline(lines, line);) {
    obs::JsonValue rec;
    std::string error;
    ASSERT_TRUE(obs::parse_json(line, &rec, &error)) << error;
    const std::string type = rec.str_or("type", "");
    if (type == "twostep.solve") ++two_step_solves;
    if (type == "remap.attempt") statuses.push_back(rec.str_or("status", ""));
    if (type != "portfolio.result") continue;
    const std::string winner = rec.str_or("winner", "");
    const bool ls_won = winner == "ls";
    EXPECT_EQ(rec.bool_or("ls_feasible", !ls_won), ls_won) << line;
    EXPECT_EQ(rec.find("exact_status") != nullptr, !ls_won) << line;
    ls_wins += ls_won;
    exact_runs += !ls_won;
  }
  EXPECT_EQ(ls_wins + exact_runs, r.outer_iterations);
  EXPECT_EQ(ls_wins, 4);
  EXPECT_EQ(exact_runs, 1);
  EXPECT_EQ(two_step_solves, exact_runs);
  ASSERT_EQ(statuses.size(), static_cast<std::size_t>(r.outer_iterations));
  EXPECT_EQ(std::count(statuses.begin(), statuses.end(), "portfolio_ls"),
            ls_wins);
}

// Certification needs no opt-in: a remap under default options returns a
// certified floorplan.
TEST(RemapperOptions, DefaultOptionsCertify) {
  const auto bench = bench_for(8);
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, {});
  EXPECT_TRUE(r.improved);
  EXPECT_TRUE(r.certified);
}

TEST(RemapperOptions, NullObjectiveStillWorks) {
  const auto bench = bench_for(2);
  RemapOptions opts;
  opts.objective = ObjectiveMode::kNull;  // the paper's literal "ObjFunc: Null"
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  std::string why;
  EXPECT_TRUE(is_valid(bench.design, r.floorplan, &why)) << why;
  EXPECT_LE(r.cpd_after_ns, r.cpd_before_ns + 1e-9);
}

TEST(RemapperOptions, ZeroMarginMonitorsOnlyCriticalPaths) {
  const auto bench = bench_for(3);
  RemapOptions tight;
  tight.path_margin = 0.0;
  const RemapResult a = aging_aware_remap(bench.design, bench.baseline, tight);
  RemapOptions wide;
  wide.path_margin = 0.5;
  const RemapResult b = aging_aware_remap(bench.design, bench.baseline, wide);
  EXPECT_LE(a.num_monitored_paths, b.num_monitored_paths);
  // The STA re-check protects the CPD regardless of the margin.
  EXPECT_LE(a.cpd_after_ns, a.cpd_before_ns + 1e-9);
  EXPECT_LE(b.cpd_after_ns, b.cpd_before_ns + 1e-9);
}

TEST(RemapperOptions, ReportsSolverStatistics) {
  const auto bench = bench_for(7);
  obs::EventLog log;
  log.open_memory();
  RemapOptions opts;
  opts.solver.events = &log;
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  log.close();
  EXPECT_GT(r.outer_iterations, 0);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GE(r.num_monitored_paths, 1);
  EXPECT_GE(r.num_frozen_ops, 1);

  // The solver statistics are in the log: each dive attempt leaves one
  // twostep.solve record (the LP-only presearch probes leave none).
  long solves = 0, work = 0;
  std::istringstream lines(log.memory_contents());
  for (std::string line; std::getline(lines, line);) {
    obs::JsonValue rec;
    std::string error;
    ASSERT_TRUE(obs::parse_json(line, &rec, &error)) << error;
    if (rec.str_or("type", "") != "twostep.solve") continue;
    ++solves;
    work += rec.int_or("lp_iterations", 0) + rec.int_or("nodes", 0);
  }
  EXPECT_EQ(solves, r.outer_iterations);
  if (r.improved) {
    EXPECT_GT(work, 0);
  }
}

TEST(RemapperOptions, MttfReportsAreInternallyConsistent) {
  const auto bench = bench_for(8);
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, {});
  EXPECT_NEAR(r.mttf_gain,
              r.mttf_after.mttf_seconds / r.mttf_before.mttf_seconds, 1e-9);
  EXPECT_NEAR(r.mttf_before.mttf_years,
              r.mttf_before.mttf_seconds / aging::kSecondsPerYear, 1e-9);
}

}  // namespace
}  // namespace cgraf::core
