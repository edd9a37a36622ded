// Property tests: the simplex and branch & bound are validated against
// brute force / first principles on randomized instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "milp/branch_and_bound.h"
#include "milp/model.h"
#include "milp/simplex.h"
#include "util/rng.h"

namespace cgraf::milp {
namespace {

struct RandomLpCase {
  Model model;
};

Model random_lp(Rng& rng, int max_vars, int max_rows, bool binaries) {
  Model m;
  const int nv = 2 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_vars)));
  const int nc = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_rows)));
  for (int j = 0; j < nv; ++j) {
    const double obj = rng.next_double() * 10 - 5;
    if (binaries) m.add_binary(obj);
    else m.add_continuous(0, 5 + rng.next_double() * 5, obj);
  }
  for (int r = 0; r < nc; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < nv; ++j)
      if (rng.next_bool(0.6)) terms.emplace_back(j, rng.next_double() * 6 - 3);
    if (terms.empty()) terms.emplace_back(0, 1.0);
    const double rhs = rng.next_double() * 6 - 1;
    switch (rng.next_below(3)) {
      case 0: m.add_le(std::move(terms), rhs); break;
      case 1: m.add_ge(std::move(terms), -rhs); break;
      default: m.add_constraint(std::move(terms), -2.0 - rhs, 2.0 + rhs); break;
    }
  }
  if (rng.next_bool(0.5)) m.set_sense(Sense::kMaximize);
  return m;
}

// Binaries mixed with continuous variables fixed by lb == ub, the shape
// whose constant terms B&B must carry through every node LP.
Model random_fixed_var_mip(Rng& rng) {
  Model m;
  const int nv = 3 + static_cast<int>(rng.next_below(6));
  for (int j = 0; j < nv; ++j) {
    if (rng.next_bool(0.3)) {
      const double v = rng.next_int(0, 3);
      m.add_continuous(v, v, rng.next_double() * 4 - 2);
    } else {
      m.add_binary(rng.next_double() * 4 - 2);
    }
  }
  const int nc = 1 + static_cast<int>(rng.next_below(5));
  for (int r = 0; r < nc; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < nv; ++j)
      if (rng.next_bool(0.6)) terms.emplace_back(j, rng.next_double() * 4 - 2);
    if (terms.empty()) terms.emplace_back(0, 1.0);
    m.add_le(std::move(terms), rng.next_double() * 5);
  }
  return m;
}

// Solves `m` with branch & bound and compares it against enumeration of
// every 0/1 point of its binaries (continuous variables must be fixed).
void expect_matches_brute_force(const Model& m) {
  const int nv = m.num_vars();
  ASSERT_LE(nv, 10);
  std::vector<int> bins;
  std::vector<double> x(static_cast<size_t>(nv), 0.0);
  for (int j = 0; j < nv; ++j) {
    if (m.var(j).type == VarType::kContinuous) {
      ASSERT_EQ(m.var(j).lb, m.var(j).ub);
      x[static_cast<size_t>(j)] = m.var(j).lb;
    } else {
      bins.push_back(j);
    }
  }

  const double sign = m.sense() == Sense::kMinimize ? 1.0 : -1.0;
  double best = kInf;
  bool any = false;
  for (int mask = 0; mask < (1 << bins.size()); ++mask) {
    for (size_t b = 0; b < bins.size(); ++b)
      x[static_cast<size_t>(bins[b])] = mask >> b & 1 ? 1.0 : 0.0;
    if (m.max_violation(x) > 1e-9) continue;
    any = true;
    best = std::min(best, sign * m.objective_value(x));
  }

  const MipResult r = solve_milp(m);
  if (!any) {
    EXPECT_EQ(r.status, SolveStatus::kInfeasible);
    return;
  }
  ASSERT_EQ(r.status, SolveStatus::kOptimal)
      << "expected optimal, got " << to_string(r.status);
  EXPECT_NEAR(sign * r.obj, best, 1e-6);
  EXPECT_LE(m.max_violation(r.x, /*check_integrality=*/true), 1e-6);
}

class RandomLpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpProperty, OptimalSolutionsAreFeasible) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const Model m = random_lp(rng, 10, 8, false);
  const LpResult r = solve_lp(m);
  switch (r.status) {
    case SolveStatus::kOptimal:
      EXPECT_LE(m.max_violation(r.x), 1e-6);
      break;
    case SolveStatus::kInfeasible:
    case SolveStatus::kUnbounded:
      break;  // legitimate outcomes for random data
    default:
      FAIL() << "unexpected status " << to_string(r.status);
  }
}

TEST_P(RandomLpProperty, ScalingObjectiveScalesOptimum) {
  Rng rng(5000 + static_cast<std::uint64_t>(GetParam()));
  Model m = random_lp(rng, 8, 6, false);
  const LpResult r1 = solve_lp(m);
  if (r1.status != SolveStatus::kOptimal) GTEST_SKIP();
  for (int j = 0; j < m.num_vars(); ++j) m.set_obj(j, 2.0 * m.var(j).obj);
  const LpResult r2 = solve_lp(m);
  ASSERT_EQ(r2.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r2.obj, 2.0 * r1.obj, 1e-5 * (1.0 + std::abs(r1.obj)));
}

TEST_P(RandomLpProperty, MilpMatchesBruteForce) {
  Rng rng(9000 + static_cast<std::uint64_t>(GetParam()));
  expect_matches_brute_force(random_lp(rng, 8, 6, true));
}

TEST_P(RandomLpProperty, LpRelaxationBoundsMilp) {
  Rng rng(13000 + static_cast<std::uint64_t>(GetParam()));
  Model m = random_lp(rng, 7, 5, true);
  const MipResult mip = solve_milp(m);
  if (mip.status != SolveStatus::kOptimal) GTEST_SKIP();
  Model relaxed = m;
  for (int j = 0; j < relaxed.num_vars(); ++j) relaxed.relax_var(j);
  const LpResult lp = solve_lp(relaxed);
  ASSERT_EQ(lp.status, SolveStatus::kOptimal);
  if (m.sense() == Sense::kMinimize) {
    EXPECT_LE(lp.obj, mip.obj + 1e-6);
  } else {
    EXPECT_GE(lp.obj, mip.obj - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpProperty, ::testing::Range(0, 40));

class FixedVarMilpProperty : public ::testing::TestWithParam<int> {};

TEST_P(FixedVarMilpProperty, MatchesBruteForce) {
  Rng rng(4242 + static_cast<std::uint64_t>(GetParam()));
  expect_matches_brute_force(random_fixed_var_mip(rng));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedVarMilpProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace cgraf::milp
