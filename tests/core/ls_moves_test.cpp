// Metamorphic and property tests for the shift/swap local-search state
// (core/local_search.h): move + inverse restores the score bit-exactly,
// deltas predict the applied change, equal-stress PE relabels leave the
// stress objective invariant, frozen/exclusivity violations are
// structurally impossible (contract aborts), and a fixed seed reproduces
// the search bit-for-bit.
#include "core/local_search.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cgrra/stress.h"
#include "timing/paths.h"

namespace cgraf::core {
namespace {

constexpr double kDmuStress = 3.14 / 5.0;

// Ops given as (context, pe) pairs on a dim x dim fabric; all kMux, so
// every op carries the same stress.
struct Fixture {
  Design design;
  Floorplan base;
  std::vector<timing::TimingPath> monitored;
  RemapModelSpec spec;

  Fixture(int dim, const std::vector<std::pair<int, int>>& ops)
      : design{Fabric(dim, dim), 2, {}, {}} {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Operation op;
      op.id = static_cast<int>(i);
      op.kind = OpKind::kMux;
      op.context = ops[i].first;
      design.ops.push_back(op);
      base.op_to_pe.push_back(ops[i].second);
    }
    spec.design = &design;
    spec.base = &base;
    spec.frozen.assign(ops.size(), 0);
    spec.candidates.assign(ops.size(), {});
    for (auto& c : spec.candidates)
      for (int pe = 0; pe < design.fabric.num_pes(); ++pe) c.push_back(pe);
    spec.st_target = -1.0;  // stress unchecked unless a test sets it
  }

  // One monitored path over `path_ops` in context 0 with a generous budget.
  void monitor(const std::vector<int>& path_ops, double cpd_ns) {
    timing::TimingPath p;
    p.context = 0;
    p.ops = path_ops;
    monitored.push_back(p);
    spec.monitored = &monitored;
    spec.cpd_ns = cpd_ns;
  }
};

TEST(LocalSearchMoves, ShiftRoundTripRestoresScoreBitExactly) {
  Fixture f(3, {{0, 0}, {0, 1}, {1, 0}, {1, 4}});
  f.spec.st_target = 0.5 * kDmuStress;  // penalties positive, not degenerate
  LsState state(f.spec);
  const double score0 = state.score();
  const double stress0 = state.stress_penalty();
  const double disp0 = state.displacement();

  ASSERT_TRUE(state.can_shift(1, 5));
  state.shift(1, 5);
  EXPECT_NE(state.displacement(), disp0);
  ASSERT_TRUE(state.can_shift(1, 1));
  state.shift(1, 1);

  EXPECT_EQ(state.score(), score0);
  EXPECT_EQ(state.stress_penalty(), stress0);
  EXPECT_EQ(state.displacement(), disp0);
  EXPECT_EQ(state.pe_of(1), 1);
}

TEST(LocalSearchMoves, SwapRoundTripRestoresScoreBitExactly) {
  Fixture f(3, {{0, 0}, {0, 4}, {1, 0}, {1, 8}});
  f.spec.st_target = 0.5 * kDmuStress;
  // Two DMU ops (~3.14 ns each) plus 2 Manhattan wire units: the 6.5 ns
  // budget leaves the path slightly over, so the penalty is exercised.
  f.monitor({0, 1}, 6.5);
  LsState state(f.spec);
  const double score0 = state.score();
  const double path0 = state.path_penalty();
  EXPECT_GT(path0, 0.0);

  ASSERT_TRUE(state.can_swap(0, 1));
  state.swap_ops(0, 1);
  ASSERT_TRUE(state.can_swap(0, 1));
  state.swap_ops(0, 1);

  EXPECT_EQ(state.score(), score0);
  EXPECT_EQ(state.path_penalty(), path0);
  EXPECT_EQ(state.pe_of(0), 0);
  EXPECT_EQ(state.pe_of(1), 4);
}

TEST(LocalSearchMoves, ShiftDeltaPredictsAppliedScoreChange) {
  Fixture f(3, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  f.spec.st_target = 1.5 * kDmuStress;  // PE0/PE1 overshoot, spread pays off
  LsState state(f.spec);
  const double before = state.score();
  ASSERT_TRUE(state.can_shift(2, 5));
  const double delta = state.shift_delta(2, 5);
  EXPECT_LT(delta, 0.0);  // moving off an overloaded PE must improve
  state.shift(2, 5);
  EXPECT_NEAR(state.score(), before + delta, 1e-9);
}

TEST(LocalSearchMoves, SwapDeltaPredictsAppliedScoreChange) {
  Fixture f(3, {{0, 0}, {0, 4}, {1, 0}, {1, 4}});
  f.spec.st_target = 1.5 * kDmuStress;
  f.monitor({0, 1}, 100.0);
  LsState state(f.spec);
  const double before = state.score();
  ASSERT_TRUE(state.can_swap(0, 1));
  const double delta = state.swap_delta(0, 1);
  state.swap_ops(0, 1);
  EXPECT_NEAR(state.score(), before + delta, 1e-9);
}

TEST(LocalSearchMoves, EqualStressPeRelabelLeavesObjectiveInvariant) {
  // Same multiset of per-PE stress under a PE permutation: the stress
  // objective must not depend on which equal-stress PE carries which op.
  Fixture a(3, {{0, 0}, {0, 1}, {1, 2}, {1, 3}});
  Fixture b(3, {{0, 1}, {0, 0}, {1, 3}, {1, 2}});
  a.spec.st_target = 0.5 * kDmuStress;
  b.spec.st_target = 0.5 * kDmuStress;
  LsState sa(a.spec);
  LsState sb(b.spec);
  EXPECT_EQ(sa.stress_penalty(), sb.stress_penalty());
  EXPECT_EQ(sa.max_stress(), sb.max_stress());
}

TEST(LocalSearchMoves, ScoreDecomposesWithPublicWeights) {
  Fixture f(3, {{0, 0}, {0, 1}, {1, 0}});
  f.spec.st_target = 0.5 * kDmuStress;
  f.monitor({0, 1}, 100.0);
  LsState state(f.spec);
  state.shift(1, 5);
  EXPECT_DOUBLE_EQ(state.score(),
                   LsState::kStressW * state.stress_penalty() +
                       LsState::kPathW * state.path_penalty() +
                       LsState::kDispW * state.displacement());
}

TEST(LocalSearchMoves, FrozenOpCannotMoveAndShiftAborts) {
  Fixture f(3, {{0, 0}, {0, 1}});
  f.spec.frozen[0] = 1;
  LsState state(f.spec);
  EXPECT_FALSE(state.can_shift(0, 5));
  EXPECT_FALSE(state.can_swap(0, 1));
  EXPECT_DEATH(state.shift(0, 5), "assertion");
}

TEST(LocalSearchMoves, ExclusivityViolatingShiftAborts) {
  Fixture f(3, {{0, 0}, {0, 1}});
  LsState state(f.spec);
  EXPECT_FALSE(state.can_shift(0, 1));  // PE1 occupied in context 0
  EXPECT_DEATH(state.shift(0, 1), "assertion");
}

TEST(LocalSearchMoves, ExclusivityViolatingSwapAborts) {
  // a(ctx0)@0 <-> b(ctx1)@1 would land a on PE1, already held by c in
  // context 0.
  Fixture f(3, {{0, 0}, {1, 1}, {0, 1}});
  LsState state(f.spec);
  EXPECT_FALSE(state.can_swap(0, 1));
  EXPECT_DEATH(state.swap_ops(0, 1), "assertion");
}

TEST(LocalSearchMoves, CandidateSetRestrictsShifts) {
  Fixture f(3, {{0, 0}, {0, 1}});
  f.spec.candidates[0] = {0, 2};
  LsState state(f.spec);
  EXPECT_TRUE(state.can_shift(0, 2));
  EXPECT_FALSE(state.can_shift(0, 3));  // legal slot, outside the set
}

TEST(LocalSearchMoves, FixedSeedIsBitReproducible) {
  Fixture f(4, {{0, 0}, {0, 1}, {0, 2}, {0, 3},
                {1, 0}, {1, 1}, {1, 2}, {1, 3}});
  f.spec.st_target = kDmuStress + 1e-6;
  LocalSearchOptions opts;
  opts.seed = 42;
  opts.max_iters = 400;
  opts.restarts = 3;
  const LocalSearchResult a = local_search_remap(f.spec, opts);
  const LocalSearchResult b = local_search_remap(f.spec, opts);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.floorplan.op_to_pe, b.floorplan.op_to_pe);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.stats.moves_examined, b.stats.moves_examined);
  EXPECT_EQ(a.stats.moves_accepted, b.stats.moves_accepted);
}

TEST(LocalSearchMoves, SearchFindsCertifiedBalancedFloorplan) {
  // 8 ops on 16 PEs: a full spread meets the single-op stress target.
  Fixture f(4, {{0, 0}, {0, 1}, {0, 2}, {0, 3},
                {1, 0}, {1, 1}, {1, 2}, {1, 3}});
  f.spec.st_target = kDmuStress + 1e-6;
  LocalSearchOptions opts;
  opts.seed = 7;
  const LocalSearchResult r = local_search_remap(f.spec, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.stats.oracle_calls, 0);
  EXPECT_EQ(r.stats.oracle_rejections, 0);
  const StressMap stress = compute_stress(f.design, r.floorplan);
  EXPECT_LE(stress.max_accumulated(), f.spec.st_target + 1e-9);
  EXPECT_NEAR(r.max_stress, stress.max_accumulated(), 1e-12);
}

TEST(LocalSearchMoves, SearchRespectsFrozenOpsAndCandidates) {
  Fixture f(3, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  f.spec.st_target = kDmuStress + 1e-6;
  f.spec.frozen[0] = 1;
  f.spec.candidates[0] = {0};
  f.spec.candidates[1] = {1, 4, 5};
  LocalSearchOptions opts;
  opts.seed = 3;
  const LocalSearchResult r = local_search_remap(f.spec, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.floorplan.pe_of(0), 0);  // frozen op pinned
  const int pe1 = r.floorplan.pe_of(1);
  EXPECT_TRUE(pe1 == 1 || pe1 == 4 || pe1 == 5);
}

TEST(LocalSearchMoves, ExclusivityViolatingBaseReportsInfeasible) {
  // Two context-0 ops on one PE: the search must refuse cleanly (fuzzed
  // callers reach this), not assert.
  Fixture f(3, {{0, 0}, {0, 0}});
  LocalSearchOptions opts;
  const LocalSearchResult r = local_search_remap(f.spec, opts);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.floorplan.op_to_pe, f.base.op_to_pe);
}

TEST(LocalSearchMoves, RotatedBaseCollisionIsRepairedNotRejected) {
  // The rotation step relocates only the frozen critical-path group, so the
  // base it hands the search can have a frozen op parked on a free op's
  // slot. The search must repair the free op onto a free PE and proceed —
  // this exact shape made the CLI's `--strategy ls` path report infeasible.
  Fixture f(3, {{0, 0}, {0, 0}, {0, 1}, {1, 0}});
  f.spec.frozen[0] = 1;  // frozen op 0 occupies PE 0; free op 1 collides
  f.spec.candidates[0] = {0};
  f.spec.st_target = kDmuStress + 1e-6;
  LocalSearchOptions opts;
  opts.seed = 11;
  const LocalSearchResult r = local_search_remap(f.spec, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.stats.start_repairs, 1);
  EXPECT_EQ(r.floorplan.pe_of(0), 0);             // frozen op stays pinned
  EXPECT_NE(r.floorplan.pe_of(1), 0);             // collider was moved off
  const StressMap stress = compute_stress(f.design, r.floorplan);
  EXPECT_LE(stress.max_accumulated(), f.spec.st_target + 1e-9);
}

TEST(LocalSearchMoves, FrozenFrozenCollisionStaysInfeasible) {
  // Two pinned ops on one slot cannot be repaired: report cleanly.
  Fixture f(3, {{0, 0}, {0, 0}});
  f.spec.frozen.assign(2, 1);
  LocalSearchOptions opts;
  const LocalSearchResult r = local_search_remap(f.spec, opts);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.stats.start_repairs, 0);
  EXPECT_EQ(r.floorplan.op_to_pe, f.base.op_to_pe);
}

TEST(LocalSearchMoves, AllFrozenSpecCertifiesTheBase) {
  Fixture f(3, {{0, 0}, {1, 1}});
  f.spec.st_target = kDmuStress + 1e-6;
  f.spec.frozen.assign(2, 1);
  f.spec.candidates[0] = {0};
  f.spec.candidates[1] = {1};
  LocalSearchOptions opts;
  const LocalSearchResult r = local_search_remap(f.spec, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.floorplan.op_to_pe, f.base.op_to_pe);
  EXPECT_EQ(r.stats.moves_accepted, 0);
}

}  // namespace
}  // namespace cgraf::core
