#include "cgrra/stress.h"

#include <gtest/gtest.h>

namespace cgraf {
namespace {

Design two_context_design() {
  Design d{Fabric(2, 2), 2, {}, {}};
  auto add = [&](OpKind kind, int ctx) {
    Operation op;
    op.id = d.num_ops();
    op.kind = kind;
    op.bitwidth = 32;
    op.context = ctx;
    d.ops.push_back(op);
    return op.id;
  };
  add(OpKind::kAdd, 0);   // stress 0.87/5
  add(OpKind::kMux, 0);   // stress 3.14/5
  add(OpKind::kAdd, 1);
  return d;
}

TEST(Stress, PerContextAndAccumulated) {
  const Design d = two_context_design();
  // op0 and op2 share PE 0 across contexts; op1 on PE 1.
  const Floorplan fp{{0, 1, 0}};
  const StressMap map = compute_stress(d, fp);
  const double alu = 0.87 / 5.0;
  const double dmu = 3.14 / 5.0;
  EXPECT_NEAR(map.per_context[0][0], alu, 1e-12);
  EXPECT_NEAR(map.per_context[0][1], dmu, 1e-12);
  EXPECT_NEAR(map.per_context[1][0], alu, 1e-12);
  EXPECT_NEAR(map.accumulated[0], 2 * alu, 1e-12);
  EXPECT_NEAR(map.accumulated[1], dmu, 1e-12);
  EXPECT_NEAR(map.accumulated[2], 0.0, 1e-12);
}

TEST(Stress, MaxAndAvg) {
  const Design d = two_context_design();
  const Floorplan fp{{0, 1, 0}};
  const StressMap map = compute_stress(d, fp);
  const double alu = 0.87 / 5.0;
  const double dmu = 3.14 / 5.0;
  EXPECT_NEAR(map.max_accumulated(), dmu, 1e-12);
  // Average is over all 4 fabric PEs (the paper's ST_low).
  EXPECT_NEAR(map.avg_accumulated(), (2 * alu + dmu) / 4.0, 1e-12);
}

TEST(Stress, TotalIsConservedAcrossFloorplans) {
  // Re-mapping moves stress around but cannot change the total.
  const Design d = two_context_design();
  const StressMap a = compute_stress(d, Floorplan{{0, 1, 0}});
  const StressMap b = compute_stress(d, Floorplan{{3, 2, 1}});
  double total_a = 0, total_b = 0;
  for (const double v : a.accumulated) total_a += v;
  for (const double v : b.accumulated) total_b += v;
  EXPECT_NEAR(total_a, total_b, 1e-12);
}

TEST(Stress, SpreadingReducesMax) {
  const Design d = two_context_design();
  const StressMap packed = compute_stress(d, Floorplan{{0, 1, 0}});
  const StressMap spread = compute_stress(d, Floorplan{{0, 1, 2}});
  EXPECT_LE(spread.max_accumulated(), packed.max_accumulated() + 1e-12);
}

TEST(Stress, UnusedFabricPEsHaveZero) {
  const Design d = two_context_design();
  const StressMap map = compute_stress(d, Floorplan{{0, 1, 0}});
  EXPECT_DOUBLE_EQ(map.accumulated[3], 0.0);
  EXPECT_DOUBLE_EQ(map.per_context[0][3], 0.0);
  EXPECT_DOUBLE_EQ(map.per_context[1][3], 0.0);
}

}  // namespace
}  // namespace cgraf
