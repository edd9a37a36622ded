// End-to-end flows through the HLS front end (DSL / kernel -> schedule ->
// place -> remap -> MTTF), plus coarse shape checks of the paper's
// qualitative claims on tiny configurations.
#include <gtest/gtest.h>

#include "core/remapper.h"
#include "hls/expr_parser.h"
#include "hls/placer.h"
#include "hls/scheduler.h"
#include "workloads/kernels.h"
#include "workloads/suite.h"

namespace cgraf {
namespace {

core::RemapResult run_flow(const hls::Dfg& dfg, int contexts, int dim,
                           bool warm_probes = true) {
  const Fabric fabric(dim, dim);
  hls::ScheduleOptions sched;
  sched.num_contexts = contexts;
  sched.max_ops_per_context = fabric.num_pes();
  const hls::ScheduleResult schedule = list_schedule(dfg, sched);
  EXPECT_TRUE(schedule.ok) << schedule.error;
  const Design design = build_design(dfg, schedule, fabric, contexts);
  hls::PlacerOptions popts;
  popts.seed = 5;
  const Floorplan baseline = place_baseline(design, popts);
  core::RemapOptions opts;
  // Full independent verification on every accepted attempt: the end-to-end
  // flows double as the certifier's hardest fixtures.
  opts.verify.enabled = true;
  opts.warm_probes = warm_probes;
  const core::RemapResult r = aging_aware_remap(design, baseline, opts);
  EXPECT_TRUE(r.certified) << r.note;
  EXPECT_EQ(r.certify_rejections, 0) << r.note;
  return r;
}

TEST(FullFlow, FirFilterEndToEnd) {
  const core::RemapResult r = run_flow(workloads::fir_filter(24, 16), 4, 6);
  EXPECT_LE(r.cpd_after_ns, r.cpd_before_ns + 1e-9);
  EXPECT_GE(r.mttf_gain, 1.0);
}

TEST(FullFlow, DslKernelEndToEnd) {
  const hls::ParseResult parsed = hls::parse_kernel(
      "@width 16;"
      "re = a*c - b*d; im = a*d + b*c;"
      "m0 = merge(re, im); out = m0 >> 1; flag = cmp(re, im);");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const core::RemapResult r = run_flow(parsed.dfg, 4, 4);
  EXPECT_LE(r.cpd_after_ns, r.cpd_before_ns + 1e-9);
  EXPECT_GE(r.mttf_gain, 1.0);
}

TEST(FullFlow, ButterflyEndToEnd) {
  const core::RemapResult r = run_flow(workloads::butterfly(8, 16), 8, 4);
  EXPECT_LE(r.cpd_after_ns, r.cpd_before_ns + 1e-9);
  EXPECT_GE(r.mttf_gain, 1.0);
}

TEST(FullFlow, WarmAndColdProbesBothCertify) {
  // The same kernel end to end with incremental warm-started probes and
  // with the forced-cold escape hatch: every certificate must pass on both
  // paths, and both must deliver the paper's zero-degradation guarantee.
  const hls::Dfg dfg = workloads::fir_filter(16, 16);
  const core::RemapResult warm = run_flow(dfg, 4, 4, /*warm_probes=*/true);
  const core::RemapResult cold = run_flow(dfg, 4, 4, /*warm_probes=*/false);
  EXPECT_LE(warm.cpd_after_ns, warm.cpd_before_ns + 1e-9);
  EXPECT_LE(cold.cpd_after_ns, cold.cpd_before_ns + 1e-9);
  EXPECT_EQ(warm.improved, cold.improved);
  EXPECT_EQ(cold.probe_warm_hits, 0);
  // The warm flow must actually have exercised basis chaining somewhere
  // (the presearch or the Delta loop).
  EXPECT_GT(warm.probe_warm_hits, 0);
}

// --- Shape checks (paper Section VI narrative) ---------------------------

double suite_gain(int contexts, int dim, double usage, std::uint64_t seed) {
  workloads::BenchmarkSpec spec;
  spec.name = "s";
  spec.contexts = contexts;
  spec.fabric_dim = dim;
  spec.usage = usage;
  spec.seed = seed;
  const auto bench = workloads::generate_benchmark(spec);
  core::RemapOptions opts;
  opts.mode = core::RemapMode::kRotate;
  return aging_aware_remap(bench.design, bench.baseline, opts).mttf_gain;
}

TEST(FullFlowShape, LowerUsageGivesMoreHeadroomOnAverage) {
  // "the lower the fabric utilization ... the higher the MTTF increase".
  // Averaged over seeds to keep the check robust.
  double low = 0.0, high = 0.0;
  for (const std::uint64_t seed : {101ULL, 102ULL, 103ULL}) {
    low += suite_gain(4, 4, 0.30, seed);
    high += suite_gain(4, 4, 0.80, seed);
  }
  EXPECT_GT(low / 3.0, high / 3.0 - 0.05);
}

TEST(FullFlowShape, MoreContextsGiveMoreBalancingRoom) {
  double c4 = 0.0, c8 = 0.0;
  for (const std::uint64_t seed : {201ULL, 202ULL, 203ULL}) {
    c4 += suite_gain(4, 4, 0.5, seed);
    c8 += suite_gain(8, 4, 0.5, seed);
  }
  EXPECT_GT(c8 / 3.0, c4 / 3.0 - 0.10);
}

TEST(FullFlowShape, RotateAtLeastMatchesFreezeOnAverage) {
  double freeze = 0.0, rotate = 0.0;
  for (const std::uint64_t seed : {301ULL, 302ULL, 303ULL}) {
    workloads::BenchmarkSpec spec;
    spec.name = "s";
    spec.contexts = 8;
    spec.fabric_dim = 4;
    spec.usage = 0.7;
    spec.seed = seed;
    const auto bench = workloads::generate_benchmark(spec);
    core::RemapOptions f;
    f.mode = core::RemapMode::kFreeze;
    freeze += aging_aware_remap(bench.design, bench.baseline, f).mttf_gain;
    core::RemapOptions r;
    r.mode = core::RemapMode::kRotate;
    rotate += aging_aware_remap(bench.design, bench.baseline, r).mttf_gain;
  }
  EXPECT_GE(rotate, freeze - 0.05);
}

}  // namespace
}  // namespace cgraf
