#include "hls/placer.h"

#include <gtest/gtest.h>

#include "cgrra/stress.h"
#include "timing/sta.h"
#include "util/rng.h"
#include "workloads/suite.h"

namespace cgraf::hls {
namespace {

workloads::GeneratedBenchmark make_bench(std::uint64_t seed, int contexts = 4,
                                         int dim = 4, double usage = 0.5) {
  workloads::BenchmarkSpec spec;
  spec.name = "t";
  spec.contexts = contexts;
  spec.fabric_dim = dim;
  spec.usage = usage;
  spec.seed = seed;
  return workloads::generate_benchmark(spec);
}

TEST(Placer, ProducesValidFloorplans) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto bench = make_bench(seed);
    std::string why;
    EXPECT_TRUE(is_valid(bench.design, bench.baseline, &why)) << why;
  }
}

TEST(Placer, DeterministicForSameSeed) {
  const auto b1 = make_bench(7);
  const auto b2 = make_bench(7);
  EXPECT_EQ(b1.baseline.op_to_pe, b2.baseline.op_to_pe);
}

TEST(Placer, DifferentSeedsUsuallyDiffer) {
  const auto bench = make_bench(7);
  PlacerOptions a;
  a.seed = 1;
  PlacerOptions b;
  b.seed = 2;
  const Floorplan fa = place_baseline(bench.design, a);
  const Floorplan fb = place_baseline(bench.design, b);
  EXPECT_NE(fa.op_to_pe, fb.op_to_pe);
}

TEST(Placer, MeetsTheClockPeriod) {
  // The generator's cluster budget (0.78 of the clock) leaves wire
  // headroom; the placer must land within the clock.
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const auto bench = make_bench(seed, 8, 6, 0.5);
    const auto sta = timing::run_sta(bench.design, bench.baseline);
    EXPECT_LE(sta.cpd_ns, bench.design.fabric.clock_period_ns() + 1e-9)
        << "seed " << seed;
  }
}

TEST(Placer, PacksTowardTheOrigin) {
  // The aging-unaware objective (bbox + anchor) concentrates usage: the
  // origin-adjacent quadrant must carry more accumulated stress than the
  // far quadrant. This is the behaviour the re-mapper exploits.
  const auto bench = make_bench(21, 4, 6, 0.4);
  const StressMap map = compute_stress(bench.design, bench.baseline);
  const Fabric& f = bench.design.fabric;
  double near = 0.0, far = 0.0;
  for (int pe = 0; pe < f.num_pes(); ++pe) {
    const Point p = f.loc(pe);
    if (p.x < f.cols() / 2 && p.y < f.rows() / 2)
      near += map.accumulated[static_cast<size_t>(pe)];
    else if (p.x >= f.cols() / 2 && p.y >= f.rows() / 2)
      far += map.accumulated[static_cast<size_t>(pe)];
  }
  EXPECT_GT(near, far);
}

TEST(Placer, MoreEffortDoesNotBreakValidity) {
  const auto bench = make_bench(5);
  PlacerOptions o;
  o.moves_per_op = 50;
  const Floorplan cheap = place_baseline(bench.design, o);
  o.moves_per_op = 600;
  const Floorplan thorough = place_baseline(bench.design, o);
  EXPECT_TRUE(is_valid(bench.design, cheap));
  EXPECT_TRUE(is_valid(bench.design, thorough));
}

TEST(Placer, FullFabricContextStillPlaces) {
  // usage 1.0: one context completely fills the fabric.
  workloads::BenchmarkSpec spec;
  spec.contexts = 2;
  spec.fabric_dim = 3;
  spec.usage = 1.0;
  spec.seed = 3;
  const auto bench = workloads::generate_benchmark(spec);
  EXPECT_TRUE(is_valid(bench.design, bench.baseline));
}

}  // namespace
}  // namespace cgraf::hls
