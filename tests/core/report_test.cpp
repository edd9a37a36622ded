#include "core/report.h"

#include <gtest/gtest.h>

namespace cgraf::core {
namespace {

BenchmarkRun fake_run(const std::string& name, int contexts, int dim,
                      workloads::UsageBand band, double freeze_gain,
                      double rotate_gain) {
  BenchmarkRun run;
  run.spec.name = name;
  run.spec.contexts = contexts;
  run.spec.fabric_dim = dim;
  run.spec.band = band;
  run.total_ops = contexts * dim;
  run.freeze.mttf_gain = freeze_gain;
  run.freeze.cpd_before_ns = 4.0;
  run.freeze.cpd_after_ns = 4.0;
  run.rotate.mttf_gain = rotate_gain;
  run.rotate.cpd_before_ns = 4.0;
  run.rotate.cpd_after_ns = 4.0;
  return run;
}

TEST(Report, Table1ContainsRowsAndAverages) {
  std::vector<BenchmarkRun> runs;
  runs.push_back(fake_run("B1", 4, 4, workloads::UsageBand::kLow, 2.0, 2.5));
  runs.push_back(fake_run("B2", 4, 6, workloads::UsageBand::kLow, 3.0, 3.5));
  runs.push_back(
      fake_run("B10", 8, 4, workloads::UsageBand::kMedium, 1.5, 1.9));
  const std::string out = format_table1(runs);
  EXPECT_NE(out.find("B1"), std::string::npos);
  EXPECT_NE(out.find("B10"), std::string::npos);
  // Band averages: low freeze = 2.50, low rotate = 3.00.
  EXPECT_NE(out.find("low freeze=2.50 rotate=3.00"), std::string::npos);
  EXPECT_NE(out.find("medium freeze=1.50 rotate=1.90"), std::string::npos);
}

TEST(Report, Table1FlagsCpdRegressions) {
  std::vector<BenchmarkRun> runs;
  BenchmarkRun bad = fake_run("B9", 16, 8, workloads::UsageBand::kHigh, 1.1,
                              1.2);
  bad.rotate.cpd_after_ns = bad.rotate.cpd_before_ns + 0.5;  // regression!
  runs.push_back(bad);
  const std::string out = format_table1(runs);
  EXPECT_NE(out.find("NO"), std::string::npos);
}

TEST(Report, Table1MarksCleanRunsYes) {
  std::vector<BenchmarkRun> runs{
      fake_run("B1", 4, 4, workloads::UsageBand::kLow, 2.0, 2.5)};
  const std::string out = format_table1(runs);
  EXPECT_NE(out.find("yes"), std::string::npos);
  EXPECT_EQ(out.find("NO"), std::string::npos);
}

TEST(Report, Fig5GroupsByConfiguration) {
  std::vector<BenchmarkRun> runs;
  runs.push_back(fake_run("B1", 4, 4, workloads::UsageBand::kLow, 2.0, 2.5));
  runs.push_back(
      fake_run("B10", 4, 4, workloads::UsageBand::kMedium, 1.6, 2.0));
  runs.push_back(fake_run("B19", 4, 4, workloads::UsageBand::kHigh, 1.3, 1.6));
  runs.push_back(fake_run("B4", 8, 4, workloads::UsageBand::kLow, 2.8, 3.1));
  const std::string out = format_fig5(runs);
  EXPECT_NE(out.find("C4F4"), std::string::npos);
  EXPECT_NE(out.find("C8F4"), std::string::npos);
  // The C4F4 row carries all three band gains.
  EXPECT_NE(out.find("2.50"), std::string::npos);
  EXPECT_NE(out.find("2.00"), std::string::npos);
  EXPECT_NE(out.find("1.60"), std::string::npos);
  // Missing bands render as '-'.
  EXPECT_NE(out.find("-"), std::string::npos);
}

TEST(Report, SummedStageStatsReachSolverStatsJson) {
  // Every LpStageStats field must survive operator+= and land in the JSON
  // totals — a field added to the struct but forgotten in add() would show
  // only one stage's value here.
  milp::LpStageStats a;
  a.pricing_seconds = 0.5;
  a.ftran_seconds = 0.25;
  a.btran_seconds = 0.125;
  a.factor_seconds = 1.5;
  a.dse_seconds = 0.75;
  a.phase1_iterations = 3;
  a.full_refreshes = 5;
  a.bucket_rebuilds = 7;
  a.incremental_updates = 11;
  a.dual_iterations = 13;
  a.bound_flips = 17;
  a.refactorizations = 19;
  a.steepest_edge_resets = 23;
  a.dual_fallbacks = 29;
  milp::LpStageStats b;
  b.pricing_seconds = 0.25;
  b.ftran_seconds = 0.5;
  b.btran_seconds = 0.375;
  b.factor_seconds = 0.5;
  b.dse_seconds = 0.25;
  b.phase1_iterations = 100;
  b.full_refreshes = 100;
  b.bucket_rebuilds = 100;
  b.incremental_updates = 100;
  b.dual_iterations = 100;
  b.bound_flips = 100;
  b.refactorizations = 100;
  b.steepest_edge_resets = 100;
  b.dual_fallbacks = 100;
  a += b;
  EXPECT_DOUBLE_EQ(a.pricing_seconds, 0.75);
  EXPECT_DOUBLE_EQ(a.ftran_seconds, 0.75);
  EXPECT_DOUBLE_EQ(a.btran_seconds, 0.5);
  EXPECT_DOUBLE_EQ(a.factor_seconds, 2.0);
  EXPECT_DOUBLE_EQ(a.dse_seconds, 1.0);
  EXPECT_EQ(a.phase1_iterations, 103);
  EXPECT_EQ(a.full_refreshes, 105);
  EXPECT_EQ(a.bucket_rebuilds, 107);
  EXPECT_EQ(a.incremental_updates, 111);
  EXPECT_EQ(a.dual_iterations, 113);
  EXPECT_EQ(a.bound_flips, 117);
  EXPECT_EQ(a.refactorizations, 119);
  EXPECT_EQ(a.steepest_edge_resets, 123);
  EXPECT_EQ(a.dual_fallbacks, 129);

  TwoStepStats stats;
  stats.lp_stage = a;
  const std::string json = solver_stats_json(stats);
  EXPECT_NE(json.find("\"phase1_iterations\":103"), std::string::npos);
  EXPECT_NE(json.find("\"full_refreshes\":105"), std::string::npos);
  EXPECT_NE(json.find("\"bucket_rebuilds\":107"), std::string::npos);
  EXPECT_NE(json.find("\"incremental_updates\":111"), std::string::npos);
  EXPECT_NE(json.find("\"dual_iterations\":113"), std::string::npos);
  EXPECT_NE(json.find("\"bound_flips\":117"), std::string::npos);
  EXPECT_NE(json.find("\"refactorizations\":119"), std::string::npos);
  EXPECT_NE(json.find("\"steepest_edge_resets\":123"), std::string::npos);
  EXPECT_NE(json.find("\"dual_fallbacks\":129"), std::string::npos);
  // The binary-exact doubles above render without rounding surprises.
  EXPECT_NE(json.find("\"pricing_seconds\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"dse_seconds\":1"), std::string::npos);

  const std::string table = format_solver_stats(stats);
  EXPECT_NE(table.find("dual iterations"), std::string::npos);
  EXPECT_NE(table.find("113"), std::string::npos);
  EXPECT_NE(table.find("bound flips"), std::string::npos);
}

TEST(Report, RunBenchmarkProducesBothVariants) {
  workloads::BenchmarkSpec spec;
  spec.name = "rb";
  spec.contexts = 4;
  spec.fabric_dim = 4;
  spec.usage = 0.4;
  spec.seed = 33;
  const auto bench = workloads::generate_benchmark(spec);
  const BenchmarkRun run = run_benchmark(bench, {});
  EXPECT_EQ(run.total_ops, bench.total_ops);
  EXPECT_GE(run.freeze.mttf_gain, 1.0);
  EXPECT_GE(run.rotate.mttf_gain, 1.0);
  EXPECT_LE(run.freeze.cpd_after_ns, run.freeze.cpd_before_ns + 1e-9);
  EXPECT_LE(run.rotate.cpd_after_ns, run.rotate.cpd_before_ns + 1e-9);
}

}  // namespace
}  // namespace cgraf::core
