#include "core/candidates.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace cgraf::core {
namespace {

// One context: chain 0 -> 1 -> 2 on a 6x6 fabric.
Design chain_design() {
  Design d{Fabric(6, 6, 5.0, 0.2), 1, {}, {}};
  for (int i = 0; i < 3; ++i) {
    Operation op;
    op.id = i;
    op.kind = OpKind::kAdd;
    op.context = 0;
    d.ops.push_back(op);
  }
  d.edges.push_back({0, 1});
  d.edges.push_back({1, 2});
  return d;
}

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

TEST(Candidates, FrozenOpsGetExactlyTheirPe) {
  const Design d = chain_design();
  const Floorplan base{{0, 1, 2}};
  const std::vector<char> frozen{1, 0, 1};
  const auto cands =
      compute_candidates(d, base, frozen, {}, /*cpd_ns=*/10.0);
  EXPECT_EQ(cands[0], std::vector<int>{0});
  EXPECT_EQ(cands[2], std::vector<int>{2});
}

TEST(Candidates, UnmonitoredFreeOpsGetTheWholeFabric) {
  const Design d = chain_design();
  const Floorplan base{{0, 1, 2}};
  const std::vector<char> frozen{0, 0, 0};
  const auto cands = compute_candidates(d, base, frozen, {}, 10.0);
  for (int op = 0; op < 3; ++op)
    EXPECT_EQ(cands[static_cast<std::size_t>(op)].size(), 36u);
}

TEST(Candidates, TightPathSlackPrunesFarPes) {
  const Design d = chain_design();
  const Floorplan base{{0, 1, 2}};  // a straight line, wires 1+1
  const std::vector<char> frozen{1, 0, 1};  // only op1 can move

  timing::TimingPath path;
  path.context = 0;
  path.ops = {0, 1, 2};
  path.pe_delay_ns = 3 * 0.87;
  path.delay_ns = path.pe_delay_ns + 2 * 0.2;

  // CPD with almost no slack: budget ~= current wire length.
  const double cpd = path.delay_ns + 0.2;  // one unit of wire slack
  CandidateOptions opts;
  opts.slack_multiplier = 1.0;
  const auto cands =
      compute_candidates(d, base, {1, 0, 1}, {path}, cpd, opts);
  // op1 candidates: contribution dist(0,k)+dist(k,2) <= 3 (2 current + 1).
  EXPECT_TRUE(contains(cands[1], 1));
  for (const int pe : cands[1]) {
    const Point p = d.fabric.loc(pe);
    EXPECT_LE(manhattan(p, {0, 0}) + manhattan(p, {2, 0}), 3) << "pe " << pe;
  }
  // Far corner is certainly out.
  EXPECT_FALSE(contains(cands[1], 35));
  (void)frozen;
}

TEST(Candidates, LooseSlackAdmitsEverything) {
  const Design d = chain_design();
  const Floorplan base{{0, 1, 2}};
  timing::TimingPath path;
  path.context = 0;
  path.ops = {0, 1, 2};
  path.pe_delay_ns = 3 * 0.87;
  const double cpd = 100.0;  // effectively unconstrained
  const auto cands =
      compute_candidates(d, base, {0, 0, 0}, {path}, cpd);
  for (int op = 0; op < 3; ++op)
    EXPECT_EQ(cands[static_cast<std::size_t>(op)].size(), 36u);
}

TEST(Candidates, OriginalPeAlwaysSurvives) {
  // Even with a *negative* allowance (over-tight path), the original PE is
  // kept so the identity floorplan stays representable.
  const Design d = chain_design();
  const Floorplan base{{0, 35, 2}};  // op1 far away: long wires
  timing::TimingPath path;
  path.context = 0;
  path.ops = {0, 1, 2};
  path.pe_delay_ns = 3 * 0.87;
  const double cpd = path.pe_delay_ns + 0.01;  // impossible wire budget
  const auto cands =
      compute_candidates(d, base, {0, 0, 0}, {path}, cpd);
  EXPECT_TRUE(contains(cands[1], 35));
}

TEST(Candidates, CandidatesAreSortedAndUnique) {
  const Design d = chain_design();
  const Floorplan base{{0, 1, 2}};
  const auto cands = compute_candidates(d, base, {0, 0, 0}, {}, 10.0);
  for (const auto& c : cands) {
    EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
    EXPECT_EQ(std::adjacent_find(c.begin(), c.end()), c.end());
  }
}

}  // namespace
}  // namespace cgraf::core
