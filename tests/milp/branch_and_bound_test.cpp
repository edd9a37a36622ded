#include "milp/branch_and_bound.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cgraf::milp {
namespace {

TEST(BranchAndBound, KnapsackOptimal) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const double value[] = {10, 6, 4};
  const double weight[] = {1, 1, 1};
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 3; ++i) row.emplace_back(m.add_binary(value[i]), weight[i]);
  m.add_le(std::move(row), 2.0);
  const MipResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.obj, 16.0, 1e-8);
  EXPECT_GT(r.x[0], 0.5);
  EXPECT_GT(r.x[1], 0.5);
  EXPECT_LT(r.x[2], 0.5);
}

TEST(BranchAndBound, FractionalLpForcedInteger) {
  // LP optimum is x = 2.5; MILP must settle on 2.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_var(0, 10, 1, VarType::kInteger);
  m.add_le({{x, 2.0}}, 5.0);
  const MipResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.obj, 2.0, 1e-8);
}

TEST(BranchAndBound, InfeasibleIntegrality) {
  // 2x = 3 has no integer solution but a fractional one.
  Model m;
  const int x = m.add_var(0, 5, 0, VarType::kInteger);
  m.add_eq({{x, 2.0}}, 3.0);
  EXPECT_EQ(solve_milp(m).status, SolveStatus::kInfeasible);
}

TEST(BranchAndBound, InfeasibleBoundsRejectedEarly) {
  Model m;
  const int x = m.add_var(0.2, 0.8, 0, VarType::kInteger);  // no integer in range
  m.add_le({{x, 1.0}}, 10.0);
  EXPECT_EQ(solve_milp(m).status, SolveStatus::kInfeasible);
}

TEST(BranchAndBound, RowBeyondMaxActivityIsInfeasible) {
  Model m;
  const int x = m.add_binary();
  const int y = m.add_binary();
  m.add_ge({{x, 1.0}, {y, 1.0}}, 3.0);  // max activity is 2
  EXPECT_EQ(solve_milp(m).status, SolveStatus::kInfeasible);
}

TEST(BranchAndBound, FixedContinuousVariableCountsInObjective) {
  // A continuous variable with lb == ub adds its constant 10 * 2 = 20 to
  // both the incumbent and the bound.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int fixed = m.add_continuous(2, 2, 10.0);
  const int x = m.add_binary(3.0);
  const int y = m.add_binary(4.0);
  m.add_le({{x, 1.0}, {y, 1.0}, {fixed, 1.0}}, 3.0);  // x + y <= 1
  const MipResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.obj, 24.0, 1e-9);
  EXPECT_NEAR(r.best_bound, 24.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<size_t>(fixed)], 2.0, 1e-9);
  EXPECT_LE(m.max_violation(r.x, /*check_integrality=*/true), 1e-6);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // max x + y, x integer <= 2.5, y continuous <= 0.5: obj = 2 + 0.5.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_var(0, kInf, 1, VarType::kInteger);
  const int y = m.add_continuous(0, kInf, 1);
  m.add_le({{x, 1.0}}, 2.5);
  m.add_le({{y, 1.0}}, 0.5);
  const MipResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.obj, 2.5, 1e-8);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(BranchAndBound, EqualityAssignment) {
  // 3 ops x 3 PEs permutation with distinct costs: optimum is the identity.
  Model m;
  int v[3][3];
  const double cost[3][3] = {{0, 5, 5}, {5, 0, 5}, {5, 5, 0}};
  for (int i = 0; i < 3; ++i)
    for (int k = 0; k < 3; ++k) v[i][k] = m.add_binary(cost[i][k]);
  for (int i = 0; i < 3; ++i)
    m.add_eq({{v[i][0], 1.0}, {v[i][1], 1.0}, {v[i][2], 1.0}}, 1.0);
  for (int k = 0; k < 3; ++k)
    m.add_le({{v[0][k], 1.0}, {v[1][k], 1.0}, {v[2][k], 1.0}}, 1.0);
  const MipResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.obj, 0.0, 1e-8);
  for (int i = 0; i < 3; ++i) EXPECT_GT(r.x[static_cast<size_t>(v[i][i])], 0.5);
}

TEST(BranchAndBound, StopAtFirstIncumbent) {
  // Feasibility-style model: stop as soon as any solution appears.
  Model m;
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 8; ++i) row.emplace_back(m.add_binary(), 1.0);
  m.add_eq(std::move(row), 4.0);
  MipOptions opts;
  opts.stop_at_first_incumbent = true;
  const MipResult r = solve_milp(m, opts);
  EXPECT_TRUE(r.status == SolveStatus::kOptimal ||
              r.status == SolveStatus::kFeasible);
  ASSERT_TRUE(r.has_solution());
  double sum = 0;
  for (const double x : r.x) sum += x;
  EXPECT_NEAR(sum, 4.0, 1e-6);
}

TEST(BranchAndBound, NodeLimitWithoutSolution) {
  // A tough equal-sum partition with an odd total: infeasible, but the
  // proof needs search; a 0-node budget reports the limit instead.
  Model m;
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 10; ++i)
    row.emplace_back(m.add_binary(), 1.0 + i * 0.0);
  m.add_eq(std::move(row), 4.5);
  MipOptions opts;
  opts.max_nodes = 0;
  const MipResult r = solve_milp(m, opts);
  EXPECT_EQ(r.status, SolveStatus::kNodeLimit);
  EXPECT_FALSE(r.has_solution());
}

TEST(BranchAndBound, NodeLpLimitKeepsItsLabel) {
  // A 3x3 assignment whose root LP cannot finish in one simplex iteration:
  // the search ends with its only node dropped, and the result must name
  // the node LP's limit, not a numerical error.
  Model m;
  int x[3][3];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) x[i][j] = m.add_binary(1.0 + 3 * i + j);
  for (int i = 0; i < 3; ++i)
    m.add_eq({{x[i][0], 1.0}, {x[i][1], 1.0}, {x[i][2], 1.0}}, 1.0);
  for (int j = 0; j < 3; ++j)
    m.add_le({{x[0][j], 1.0}, {x[1][j], 1.0}, {x[2][j], 1.0}}, 1.0);
  MipOptions opts;
  opts.lp.max_iters = 1;
  const MipResult r = solve_milp(m, opts);
  EXPECT_EQ(r.status, SolveStatus::kIterLimit);
  EXPECT_EQ(r.nodes, 1);
  EXPECT_FALSE(r.has_solution());
}

TEST(BranchAndBound, BestBoundIsValid) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const double value[] = {7, 5, 4, 3};
  const double weight[] = {13, 10, 8, 7};
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 4; ++i) row.emplace_back(m.add_binary(value[i]), weight[i]);
  m.add_le(std::move(row), 19.0);
  const MipResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_GE(r.best_bound, r.obj - 1e-6);  // maximization: bound >= incumbent
}

TEST(BranchAndBound, PureLpModelPassesThrough) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_continuous(0, 2.5, 1);
  m.add_le({{x, 1.0}}, 10.0);
  const MipResult r = solve_milp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.obj, 2.5, 1e-8);
  EXPECT_EQ(r.nodes, 1);
}

}  // namespace
}  // namespace cgraf::milp
