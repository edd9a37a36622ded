#include "cgrra/floorplan.h"

#include <gtest/gtest.h>

namespace cgraf {
namespace {

// 2 contexts, 3 ops: op0,op1 in ctx0 (op0->op1 chained), op2 in ctx1.
Design small_design() {
  Design d{Fabric(2, 2), 2, {}, {}};
  for (int i = 0; i < 3; ++i) {
    Operation op;
    op.id = i;
    op.kind = OpKind::kAdd;
    op.context = i < 2 ? 0 : 1;
    d.ops.push_back(op);
  }
  d.edges.push_back({0, 1});
  d.edges.push_back({1, 2});
  return d;
}

TEST(Floorplan, ValidPlan) {
  const Design d = small_design();
  const Floorplan fp{{0, 1, 0}};
  std::string why;
  EXPECT_TRUE(is_valid(d, fp, &why)) << why;
}

TEST(Floorplan, SizeMismatchRejected) {
  const Design d = small_design();
  std::string why;
  EXPECT_FALSE(is_valid(d, Floorplan{{0, 1}}, &why));
  EXPECT_NE(why.find("size"), std::string::npos);
}

TEST(Floorplan, OutOfFabricRejected) {
  const Design d = small_design();
  EXPECT_FALSE(is_valid(d, Floorplan{{0, 4, 0}}));
  EXPECT_FALSE(is_valid(d, Floorplan{{-1, 1, 0}}));
}

TEST(Floorplan, SameContextCollisionRejected) {
  const Design d = small_design();
  std::string why;
  EXPECT_FALSE(is_valid(d, Floorplan{{2, 2, 0}}, &why));
  EXPECT_NE(why.find("two ops"), std::string::npos);
}

TEST(Floorplan, CrossContextSharingAllowed) {
  // op0 (ctx 0) and op2 (ctx 1) on the same PE: legal time-sharing.
  const Design d = small_design();
  EXPECT_TRUE(is_valid(d, Floorplan{{2, 1, 2}}));
}

TEST(Floorplan, BackwardsCrossContextEdgeRejected) {
  Design d = small_design();
  d.edges.push_back({2, 0});  // ctx1 -> ctx0 flows backwards
  EXPECT_FALSE(is_valid(d, Floorplan{{0, 1, 0}}));
}

TEST(Floorplan, CombinationalCycleRejected) {
  Design d = small_design();
  d.edges.push_back({1, 0});  // 0->1->0 within context 0
  std::string why;
  EXPECT_FALSE(is_valid(d, Floorplan{{0, 1, 0}}, &why));
  EXPECT_NE(why.find("cycle"), std::string::npos);
}

TEST(Floorplan, ContextOutOfRangeRejected) {
  Design d = small_design();
  d.ops[2].context = 7;
  EXPECT_FALSE(is_valid(d, Floorplan{{0, 1, 0}}));
}

}  // namespace
}  // namespace cgraf
