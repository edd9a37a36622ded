// Integration tests of Algorithm 1 end to end on generated benchmarks:
// every invariant the paper promises must hold on the returned floorplan.
#include <gtest/gtest.h>

#include "cgrra/stress.h"
#include "core/remapper.h"
#include "obs/event_log.h"
#include "obs/postmortem.h"
#include "timing/paths.h"
#include "verify/certify.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

workloads::GeneratedBenchmark make_bench(int contexts, int dim, double usage,
                                         std::uint64_t seed) {
  workloads::BenchmarkSpec spec;
  spec.name = "it";
  spec.contexts = contexts;
  spec.fabric_dim = dim;
  spec.usage = usage;
  spec.seed = seed;
  return workloads::generate_benchmark(spec);
}

// One remap recorded into an in-memory event log; `report` gets the log's
// post-mortem, the one carrier of the probe sessions' accounting.
RemapResult logged_remap(const workloads::GeneratedBenchmark& bench,
                         RemapOptions opts, obs::PostmortemReport* report) {
  obs::EventLog log;
  log.open_memory();
  opts.solver.events = &log;
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  log.close();
  std::string error;
  EXPECT_TRUE(obs::analyze_events(log.memory_contents(), report, &error))
      << error;
  return r;
}

void check_invariants(const workloads::GeneratedBenchmark& bench,
                      const RemapResult& r) {
  std::string why;
  ASSERT_TRUE(is_valid(bench.design, r.floorplan, &why)) << why;
  // The paper's headline guarantee: zero delay degradation.
  EXPECT_LE(r.cpd_after_ns, r.cpd_before_ns + 1e-9);
  // Stress can only improve (or the baseline is returned unchanged).
  EXPECT_LE(r.st_max_after, r.st_max_before + 1e-9);
  EXPECT_GE(r.mttf_gain, 1.0 - 1e-9);
  // No accepted attempt was later thrown out by the certifier.
  EXPECT_EQ(r.certify_rejections, 0) << r.note;
  // Reported stress figures match a from-scratch recomputation.
  const StressMap recomputed = compute_stress(bench.design, r.floorplan);
  EXPECT_NEAR(recomputed.max_accumulated(), r.st_max_after, 1e-9);
  // Independent certificate on the returned floorplan: legality, the
  // achieved stress bound, and every baseline monitored path within the
  // original CPD budget.
  const timing::CombGraph graph(bench.design);
  const auto monitored = timing::monitored_paths(graph, bench.baseline);
  verify::FloorplanSpec spec;
  spec.design = &bench.design;
  spec.st_target = r.st_max_after;
  spec.monitored = &monitored;
  spec.cpd_ns = r.cpd_before_ns;
  const verify::Certificate cert = verify::certify_floorplan(spec, r.floorplan);
  EXPECT_TRUE(cert.ok) << cert.summary();
}

class RemapPipeline
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(RemapPipeline, FreezeInvariants) {
  const auto [contexts, dim, usage] = GetParam();
  const auto bench = make_bench(contexts, dim, usage, 42);
  RemapOptions opts;
  opts.mode = RemapMode::kFreeze;
  opts.verify.enabled = true;
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  EXPECT_TRUE(r.certified) << r.note;
  check_invariants(bench, r);
}

TEST_P(RemapPipeline, RotateInvariants) {
  const auto [contexts, dim, usage] = GetParam();
  const auto bench = make_bench(contexts, dim, usage, 43);
  RemapOptions opts;
  opts.mode = RemapMode::kRotate;
  opts.verify.enabled = true;
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  EXPECT_TRUE(r.certified) << r.note;
  check_invariants(bench, r);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RemapPipeline,
    ::testing::Values(std::make_tuple(4, 4, 0.3), std::make_tuple(4, 4, 0.7),
                      std::make_tuple(8, 4, 0.5), std::make_tuple(4, 6, 0.4),
                      std::make_tuple(8, 6, 0.6)));

TEST(RemapPipeline, FreezeKeepsCriticalOpsPinned) {
  const auto bench = make_bench(4, 4, 0.5, 7);
  const timing::CombGraph graph(bench.design);
  std::vector<char> frozen(static_cast<std::size_t>(bench.design.num_ops()),
                           0);
  for (int c = 0; c < bench.design.num_contexts; ++c)
    for (const auto& p : timing::critical_paths(graph, bench.baseline, c, 8))
      for (const int op : p.ops) frozen[static_cast<std::size_t>(op)] = 1;

  RemapOptions opts;
  opts.mode = RemapMode::kFreeze;
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  for (int op = 0; op < bench.design.num_ops(); ++op) {
    if (frozen[static_cast<std::size_t>(op)]) {
      EXPECT_EQ(r.floorplan.pe_of(op), bench.baseline.pe_of(op))
          << "critical op " << op << " moved in Freeze mode";
    }
  }
}

TEST(RemapPipeline, RotatePreservesEveryContextsCpDelay) {
  // Rotation is an L1 isometry: each context's critical-path delay is
  // exactly preserved even though the ops moved.
  const auto bench = make_bench(8, 4, 0.6, 9);
  RemapOptions opts;
  opts.mode = RemapMode::kRotate;
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  const auto before = timing::run_sta(bench.design, bench.baseline);
  const auto after = timing::run_sta(bench.design, r.floorplan);
  for (int c = 0; c < bench.design.num_contexts; ++c) {
    EXPECT_LE(after.context_cpd_ns[static_cast<std::size_t>(c)],
              before.cpd_ns + 1e-9);
  }
}

TEST(RemapPipeline, MonitoredPathsStillMeetBudgets) {
  const auto bench = make_bench(4, 6, 0.4, 11);
  const timing::CombGraph graph(bench.design);
  const auto monitored = timing::monitored_paths(graph, bench.baseline);
  const auto sta = run_sta(graph, bench.baseline);
  RemapOptions opts;
  opts.mode = RemapMode::kFreeze;
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  for (const auto& p : monitored) {
    EXPECT_LE(path_delay_ns(bench.design, r.floorplan, p),
              sta.cpd_ns + 1e-9);
  }
}

TEST(RemapPipeline, DeterministicForFixedSeed) {
  const auto bench = make_bench(4, 4, 0.5, 21);
  RemapOptions opts;
  opts.seed = 77;
  const RemapResult a = aging_aware_remap(bench.design, bench.baseline, opts);
  const RemapResult b = aging_aware_remap(bench.design, bench.baseline, opts);
  EXPECT_EQ(a.floorplan.op_to_pe, b.floorplan.op_to_pe);
  EXPECT_DOUBLE_EQ(a.mttf_gain, b.mttf_gain);
}

TEST(RemapPipeline, TypicallyImprovesOnPackedBaselines) {
  // Not a per-instance guarantee, but across a handful of seeds the
  // re-mapper must find improvements on low/medium-usage designs.
  int improved = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto bench = make_bench(4, 4, 0.4, seed);
    const RemapResult r =
        aging_aware_remap(bench.design, bench.baseline, {});
    improved += r.improved ? 1 : 0;
  }
  EXPECT_GE(improved, 3);
}

TEST(RemapPipeline, ReportsStepOneBoundBelowFinalTarget) {
  const auto bench = make_bench(8, 4, 0.5, 5);
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, {});
  if (r.improved) {
    EXPECT_LE(r.st_avg, r.st_target_final + 1e-9);
    EXPECT_LE(r.st_max_after, r.st_target_final + 1e-9);
  }
}

TEST(RemapPipeline, WarmProbesMatchColdPipeline) {
  // The full pipeline with incremental warm-started probes against
  // forced-cold sessions: both must pass certification and every paper
  // invariant; the LP presearch takes identical probe sequences, so the
  // entry point of the Delta loop is the same and the two runs land on the
  // same floorplan.
  for (const std::uint64_t seed : {31ULL, 32ULL}) {
    const auto bench = make_bench(4, 4, 0.5, seed);
    RemapOptions warm_opts;
    warm_opts.verify.enabled = true;
    warm_opts.warm_probes = true;
    obs::PostmortemReport warm_log;
    const RemapResult warm = logged_remap(bench, warm_opts, &warm_log);
    RemapOptions cold_opts = warm_opts;
    cold_opts.warm_probes = false;
    obs::PostmortemReport cold_log;
    const RemapResult cold = logged_remap(bench, cold_opts, &cold_log);

    EXPECT_TRUE(warm.certified) << warm.note;
    EXPECT_TRUE(cold.certified) << cold.note;
    check_invariants(bench, warm);
    check_invariants(bench, cold);
    EXPECT_EQ(warm.improved, cold.improved) << seed;
    // Both runs honor the same guarantees; the achieved balance must agree
    // (the dive is warm-started, so insist on matching outcomes, not
    // bitwise-equal floorplans).
    EXPECT_NEAR(warm.st_max_after, cold.st_max_after,
                0.05 * bench.design.num_contexts)
        << seed;
    // Cold probes rebuild every time and never chain bases; the warm run
    // must actually have chained one somewhere (the presearch or the Delta
    // loop).
    EXPECT_EQ(cold_log.probe_warm_hits, 0) << seed;
    EXPECT_EQ(cold_log.probe_fallbacks, 0) << seed;
    EXPECT_GT(cold_log.probe_rebuilds, 0) << seed;
    EXPECT_EQ(cold_log.probe_rebuilds, cold_log.probes) << seed;
    EXPECT_GT(warm_log.probe_warm_hits, 0) << seed;
  }
}

TEST(RemapPipeline, WarmProbesAccountingIsConsistent) {
  const auto bench = make_bench(8, 4, 0.5, 13);
  RemapOptions opts;
  opts.warm_probes = true;
  obs::PostmortemReport log;
  logged_remap(bench, opts, &log);
  // Every session builds at least once, and each probe is at most one of a
  // rebuild, a warm hit or a fallback: a rebuild drops the chained basis,
  // and a chained solve is classified as a hit or a fallback, never both.
  EXPECT_GT(log.probe_rebuilds, 0);
  EXPECT_LE(log.probe_warm_hits + log.probe_fallbacks + log.probe_rebuilds,
            log.probes);
}

}  // namespace
}  // namespace cgraf::core
