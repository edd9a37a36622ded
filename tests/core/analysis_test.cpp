#include "core/analysis.h"

#include <gtest/gtest.h>

#include "core/remapper.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

Design small_design() {
  Design d{Fabric(4, 4, 5.0, 0.2), 2, {}, {}};
  auto add = [&](OpKind kind, int ctx) {
    Operation op;
    op.id = d.num_ops();
    op.kind = kind;
    op.context = ctx;
    d.ops.push_back(op);
  };
  add(OpKind::kAdd, 0);
  add(OpKind::kAdd, 0);
  add(OpKind::kMux, 1);
  d.edges.push_back({0, 1});  // combinational (ctx 0)
  d.edges.push_back({1, 2});  // registered (crosses contexts)
  return d;
}

TEST(Analysis, IdenticalFloorplansDiffToZero) {
  const Design d = small_design();
  const Floorplan fp{{0, 1, 2}};
  const FloorplanDiff diff = diff_floorplans(d, fp, fp);
  EXPECT_EQ(diff.ops_moved, 0);
  EXPECT_EQ(diff.max_displacement, 0);
  EXPECT_DOUBLE_EQ(diff.avg_displacement, 0.0);
  EXPECT_EQ(diff.wirelength_before, diff.wirelength_after);
  EXPECT_DOUBLE_EQ(diff.cpd_before_ns, diff.cpd_after_ns);
  EXPECT_TRUE(diff.moved_ops.empty());
}

TEST(Analysis, DiffTracksMovesAndWirelength) {
  const Design d = small_design();
  const Floorplan a{{0, 1, 2}};   // line: wires 1 + 1
  const Floorplan b{{0, 1, 15}};  // op2 to the far corner
  const FloorplanDiff diff = diff_floorplans(d, a, b);
  EXPECT_EQ(diff.ops_moved, 1);
  EXPECT_EQ(diff.moved_ops, std::vector<int>{2});
  EXPECT_EQ(diff.max_displacement, manhattan({2, 0}, {3, 3}));
  EXPECT_EQ(diff.wirelength_before, 2);
  EXPECT_EQ(diff.wirelength_after, 1 + manhattan({1, 0}, {3, 3}));
  // op2 is alone in its context: moving it cannot change any context CPD.
  EXPECT_DOUBLE_EQ(diff.cpd_before_ns, diff.cpd_after_ns);
}

TEST(Analysis, FormatDiffMentionsTheNumbers) {
  const Design d = small_design();
  const FloorplanDiff diff =
      diff_floorplans(d, Floorplan{{0, 1, 2}}, Floorplan{{0, 1, 15}});
  const std::string out = format_diff(diff);
  EXPECT_NE(out.find("1 / 3"), std::string::npos);
  EXPECT_NE(out.find("wirelength"), std::string::npos);
  EXPECT_NE(out.find("cpd"), std::string::npos);
}

TEST(Analysis, RemapDiffIsConsistentWithRemapResult) {
  workloads::BenchmarkSpec spec;
  spec.name = "an";
  spec.contexts = 4;
  spec.fabric_dim = 4;
  spec.usage = 0.4;
  spec.seed = 12;
  const auto bench = workloads::generate_benchmark(spec);
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, {});
  const FloorplanDiff diff =
      diff_floorplans(bench.design, bench.baseline, r.floorplan);
  EXPECT_NEAR(diff.cpd_before_ns, r.cpd_before_ns, 1e-9);
  EXPECT_NEAR(diff.cpd_after_ns, r.cpd_after_ns, 1e-9);
  EXPECT_NEAR(diff.st_max_before, r.st_max_before, 1e-9);
  EXPECT_NEAR(diff.st_max_after, r.st_max_after, 1e-9);
  if (r.improved) {
    EXPECT_GT(diff.ops_moved, 0);
  }
}

}  // namespace
}  // namespace cgraf::core
