// The dual simplex loop must be a pivot-order optimization, never a
// behaviour change: every warm status and objective agrees with a cold
// solve, which runs the primal loop alone (the primal loop also certifies
// optimality after a dual run), and the dual loop engages exactly on the
// warm-re-solve pattern that branch & bound children and ST_target probe
// chains produce.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "milp/branch_and_bound.h"
#include "milp/model.h"
#include "milp/simplex.h"
#include "util/rng.h"

namespace cgraf::milp {
namespace {

// The floorplanner's LP shape: assignment rows + capacity rows (see
// pricing_test.cpp; duplicated rather than shared so each test file stays
// self-contained).
Model assignment_lp(std::uint64_t seed, int ops, int pes) {
  Rng rng(seed);
  Model m;
  std::vector<std::vector<int>> vars(static_cast<size_t>(ops));
  std::vector<double> stress(static_cast<size_t>(ops));
  for (int j = 0; j < ops; ++j) {
    stress[static_cast<size_t>(j)] = 0.2 + 0.6 * rng.next_double();
    for (int k = 0; k < pes; ++k)
      vars[static_cast<size_t>(j)].push_back(
          m.add_continuous(0, 1, rng.next_double()));
    std::vector<std::pair<int, double>> row;
    for (const int v : vars[static_cast<size_t>(j)]) row.emplace_back(v, 1.0);
    m.add_eq(std::move(row), 1.0);
  }
  double total = 0.0;
  for (const double s : stress) total += s;
  const double cap = std::max(1.3 * total / pes, 0.85);
  for (int k = 0; k < pes; ++k) {
    std::vector<std::pair<int, double>> row;
    for (int j = 0; j < ops; ++j)
      row.emplace_back(vars[static_cast<size_t>(j)][static_cast<size_t>(k)],
                       stress[static_cast<size_t>(j)]);
    m.add_le(std::move(row), cap);
  }
  return m;
}

void expect_same(const LpResult& a, const LpResult& b, const char* label) {
  ASSERT_EQ(a.status, b.status) << label;
  if (a.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(a.obj, b.obj, 1e-6 * (1.0 + std::abs(b.obj))) << label;
  }
}

TEST(DualSimplex, AllBoxedColumnsResolveByBoundFlips) {
  // min -sum(x) s.t. sum(x) <= 8, x in [0,1]^8: every structural column
  // sits at its upper bound. Tightening the row to <= 3.5 keeps that basis
  // dual feasible but violates the row, so the warm re-solve runs the dual
  // loop, whose bound-flipping ratio test walks three columns back down and
  // pivots the fourth into the basis at 0.5.
  Model m;
  std::vector<std::pair<int, double>> row;
  for (int j = 0; j < 8; ++j) row.emplace_back(m.add_continuous(0, 1, -1), 1.0);
  m.add_le(std::move(row), 8.0);
  SimplexEngine engine(m);
  const LpResult root = engine.solve();
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  engine.set_row_bounds(0, -kInf, 3.5);
  const LpResult dual = engine.solve(&root.basis);
  ASSERT_EQ(dual.status, SolveStatus::kOptimal);
  EXPECT_TRUE(dual.dual_used);
  EXPECT_EQ(dual.stats.bound_flips, 3);
  EXPECT_EQ(dual.stats.dual_iterations, 1);
  EXPECT_NEAR(dual.obj, -3.5, 1e-8);
  expect_same(dual, engine.solve(), "all-boxed");
}

TEST(DualSimplex, AutoWarmEngagesOnlyWithWarmBasis) {
  const Model m = assignment_lp(7, 24, 10);
  SimplexEngine engine(m);
  const LpResult root = engine.solve();
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  EXPECT_FALSE(root.dual_used);  // cold solve: no warm basis, primal runs

  // Tighten the bounds of basic-at-value variables, as a branch-and-bound
  // child does, and re-solve from the root basis: the warm basis stays dual
  // feasible (costs unchanged) but turns primal infeasible, so the engine
  // runs the dual loop and actually pivots.
  std::vector<double> lb = engine.model_lb();
  std::vector<double> ub = engine.model_ub();
  int tightened = 0;
  for (int v = 0; v < engine.num_structural() && tightened < 4; ++v) {
    if (root.x[static_cast<size_t>(v)] > 0.5) {
      ub[static_cast<size_t>(v)] = 0.0;
      ++tightened;
    }
  }
  ASSERT_GT(tightened, 0);
  const LpResult warm = engine.solve(lb, ub, &root.basis);
  const LpResult cold = engine.solve(lb, ub);
  ASSERT_EQ(warm.status, cold.status);
  EXPECT_TRUE(warm.warm_used);
  EXPECT_TRUE(warm.dual_used);
  EXPECT_GT(warm.stats.dual_iterations + warm.stats.bound_flips, 0);
  if (warm.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(warm.obj, cold.obj, 1e-6 * (1.0 + std::abs(cold.obj)));
  }
}

TEST(DualSimplex, UnrepairableBasisFallsBackToPrimal) {
  // min -x with x in [0, inf): the slack basis, passed as a warm start,
  // prices x at reduced cost -1 with no finite upper bound to flip to, so
  // the basis cannot be made dual feasible — the engine must count one
  // fallback and let the primal loop solve from the same basis.
  Model m;
  const int x = m.add_continuous(0, kInf, -1);
  m.add_le({{x, 1.0}}, 5.0);
  SimplexEngine engine(m);
  const std::vector<ColStatus> slack = {ColStatus::kAtLower,
                                        ColStatus::kBasic};
  const LpResult r = engine.solve(&slack);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.obj, -5.0, 1e-8);
  EXPECT_TRUE(r.warm_used);
  EXPECT_FALSE(r.dual_used);
  EXPECT_EQ(r.stats.dual_fallbacks, 1);
  EXPECT_EQ(r.stats.dual_iterations, 0);
  expect_same(r, engine.solve(), "unrepairable");
}

TEST(DualSimplex, InfeasibleModelDetected) {
  // sum(x) >= 10 over x in [0,1]^3 cannot be met. The null objective keeps
  // the basis solved at sum(x) >= 1 dual feasible after the tightening, so
  // the warm re-solve runs the dual loop and the verdict (however it is
  // certified) matches a cold solve's.
  Model m;
  std::vector<std::pair<int, double>> row;
  for (int j = 0; j < 3; ++j) row.emplace_back(m.add_continuous(0, 1, 0), 1.0);
  m.add_ge(std::move(row), 1.0);
  SimplexEngine engine(m);
  const LpResult root = engine.solve();
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  engine.set_row_bounds(0, 10.0, kInf);
  const LpResult dual = engine.solve(&root.basis);
  EXPECT_EQ(dual.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(dual.dual_used);
  EXPECT_EQ(engine.solve().status, SolveStatus::kInfeasible);
}

TEST(DualSimplex, CountersFlowIntoStageStats) {
  const Model m = assignment_lp(11, 28, 10);
  SimplexEngine engine(m);
  const LpResult root = engine.solve();
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  EXPECT_GT(root.stats.refactorizations, 0);  // initial factorization counts

  std::vector<double> lb = engine.model_lb();
  std::vector<double> ub = engine.model_ub();
  LpStageStats sum;
  long dual_pivots = 0;
  for (int v = 0; v < engine.num_structural(); ++v) {
    if (root.x[static_cast<size_t>(v)] <= 0.5) continue;
    const double saved = ub[static_cast<size_t>(v)];
    ub[static_cast<size_t>(v)] = 0.0;
    const LpResult child = engine.solve(lb, ub, &root.basis);
    ub[static_cast<size_t>(v)] = saved;
    if (child.status != SolveStatus::kOptimal) continue;
    EXPECT_TRUE(child.dual_used);
    sum += child.stats;
    dual_pivots += child.stats.dual_iterations;
  }
  // Across a whole fan of children at least some must take real dual pivots.
  EXPECT_GT(dual_pivots, 0);
  EXPECT_EQ(sum.dual_iterations, dual_pivots);  // operator+= accumulates
}

// B&B end-to-end determinism: the integer optimum must not depend on the
// worker-thread count, and must match the optimum recorded from a
// single-thread run whose LPs were all forced through the primal loop.
TEST(DualSimplexBnb, ObjectiveInvariantAcrossAlgorithmsAndThreads) {
  Rng rng(97);
  Model m;
  std::vector<int> vars;
  for (int j = 0; j < 14; ++j)
    vars.push_back(m.add_binary(1.0 + rng.next_double() * 4.0));
  m.set_sense(Sense::kMaximize);
  for (int r = 0; r < 6; ++r) {
    std::vector<std::pair<int, double>> row;
    for (const int v : vars)
      if (rng.next_bool(0.5)) row.emplace_back(v, 1.0 + rng.next_double());
    if (row.empty()) row.emplace_back(vars[0], 1.0);
    m.add_le(std::move(row), 4.0 + rng.next_double() * 3.0);
  }

  constexpr double kPinnedOptimum = 22.381100413582551;
  for (const int threads : {1, 4}) {
    MipOptions opts;
    opts.num_threads = threads;
    const MipResult r = solve_milp(m, opts);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << "threads=" << threads;
    EXPECT_NEAR(r.obj, kPinnedOptimum,
                1e-6 * (1.0 + std::abs(kPinnedOptimum)))
        << "threads=" << threads;
  }
}

TEST(DualSimplexBnb, ChildSolvesUseDualUnderAutoWarm) {
  // A fractional-LP knapsack forces real branching; every warm-started
  // child re-solve may take the dual loop, and the aggregated node stats
  // must show it actually did somewhere.
  Rng rng(31);
  Model m;
  std::vector<std::pair<int, double>> row;
  for (int j = 0; j < 16; ++j)
    row.emplace_back(m.add_binary(1.0 + rng.next_double() * 5.0),
                     1.0 + rng.next_double() * 3.0);
  m.set_sense(Sense::kMaximize);
  m.add_le(std::move(row), 11.0);
  MipOptions opts;
  opts.num_threads = 1;
  const MipResult r = solve_milp(m, opts);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  if (r.nodes > 1) {
    EXPECT_GT(r.lp_stats.dual_iterations + r.lp_stats.bound_flips, 0);
  }
}

}  // namespace
}  // namespace cgraf::milp
