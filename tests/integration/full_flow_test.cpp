// Coarse shape checks of the paper's qualitative claims (Section VI) on
// tiny generated suite configurations: averaged over seeds, lower usage,
// more contexts and Rotate over Freeze each leave more room for balancing.
// The per-instance invariants of every remap live in remap_pipeline_test.
#include <gtest/gtest.h>

#include "core/remapper.h"
#include "workloads/suite.h"

namespace cgraf {
namespace {

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
