#include "core/two_step.h"

#include <gtest/gtest.h>

#include "cgrra/stress.h"
#include "core/probe_session.h"

namespace cgraf::core {
namespace {

// One context with `n` DMU ops on a dim x dim fabric; balancing them is a
// pure assignment problem.
struct Fixture {
  Design design;
  Floorplan base;

  explicit Fixture(int n, int dim) : design{Fabric(dim, dim), 2, {}, {}} {
    for (int i = 0; i < n; ++i) {
      Operation op;
      op.id = i;
      op.kind = OpKind::kMux;
      op.context = i % 2;
      design.ops.push_back(op);
      base.op_to_pe.push_back(i / 2);  // packed: contexts stack on low PEs
    }
  }

  RemapModelSpec spec(double st_target,
                      ObjectiveMode obj = ObjectiveMode::kMinPerturbation) {
    RemapModelSpec s;
    s.design = &design;
    s.base = &base;
    s.frozen.assign(design.ops.size(), 0);
    s.candidates.assign(design.ops.size(), {});
    for (auto& c : s.candidates)
      for (int pe = 0; pe < design.fabric.num_pes(); ++pe) c.push_back(pe);
    s.st_target = st_target;
    s.objective = obj;
    return s;
  }

  RemapModel model(double st_target,
                   ObjectiveMode obj = ObjectiveMode::kMinPerturbation) {
    return build_remap_model(spec(st_target, obj));
  }
};

constexpr double kDmuStress = 3.14 / 5.0;

TEST(TwoStep, DiveFindsABalancedFloorplan) {
  Fixture f(8, 4);  // 8 ops, 16 PEs: perfect spread -> one op per PE
  const RemapModel rm = f.model(kDmuStress + 1e-6);
  const TwoStepResult r = solve_two_step(rm, {});
  ASSERT_EQ(r.status, milp::SolveStatus::kOptimal);
  std::string why;
  ASSERT_TRUE(is_valid(f.design, r.floorplan, &why)) << why;
  const StressMap stress = compute_stress(f.design, r.floorplan);
  EXPECT_LE(stress.max_accumulated(), kDmuStress + 1e-6);
}

TEST(TwoStep, NeverClaimsSuccessBelowSingleOpStress) {
  // Below the per-op stress the *LP relaxation* is still feasible (an op
  // can be split fractionally across PEs), so the dive gives up without a
  // proof; the one-shot ILP proves infeasibility outright. Either way no
  // floorplan may be claimed.
  Fixture f(4, 3);
  const TwoStepResult dive = solve_two_step(f.model(0.5 * kDmuStress), {});
  EXPECT_NE(dive.status, milp::SolveStatus::kOptimal);
  EXPECT_TRUE(dive.floorplan.op_to_pe.empty());

  TwoStepOptions ilp;
  ilp.strategy = RoundingStrategy::kNone;
  const TwoStepResult proved =
      solve_two_step(f.model(0.5 * kDmuStress), ilp);
  EXPECT_EQ(proved.status, milp::SolveStatus::kInfeasible);
}

TEST(TwoStep, LpOnlyProbesFeasibility) {
  // The presearch's probe answers with the LP relaxation alone: no integer
  // solve, so no floorplan.
  Fixture f(8, 4);
  ProbeSession feasible_session(f.spec(kDmuStress), {});
  const TwoStepResult feasible = feasible_session.solve_lp(kDmuStress);
  EXPECT_EQ(feasible.status, milp::SolveStatus::kOptimal);
  EXPECT_TRUE(feasible.floorplan.op_to_pe.empty());
  EXPECT_EQ(feasible.stats.dive_rounds, 0);
  ProbeSession infeasible_session(f.spec(0.4 * kDmuStress), {});
  const TwoStepResult infeasible =
      infeasible_session.solve_lp(0.4 * kDmuStress);
  EXPECT_EQ(infeasible.status, milp::SolveStatus::kInfeasible);
  EXPECT_GT(infeasible.stats.lp_iterations, 0);
}

TEST(TwoStep, TriviallyInfeasibleModelShortCircuits) {
  Fixture f(4, 3);
  RemapModel rm = f.model(1.0);
  rm.trivially_infeasible = true;
  const TwoStepResult r = solve_two_step(rm, {});
  EXPECT_EQ(r.status, milp::SolveStatus::kInfeasible);
  EXPECT_EQ(r.stats.dive_rounds, 0);
}

TEST(TwoStep, AllStrategiesAgreeOnFeasibility) {
  Fixture f(6, 3);  // 9 PEs, 6 ops; target forces a full spread
  for (const RoundingStrategy strategy :
       {RoundingStrategy::kIterativeDive, RoundingStrategy::kThresholdFixOnce,
        RoundingStrategy::kRandomizedRound, RoundingStrategy::kNone}) {
    const RemapModel rm = f.model(kDmuStress + 1e-6);
    TwoStepOptions opts;
    opts.strategy = strategy;
    opts.mip.stop_at_first_incumbent = true;
    const TwoStepResult r = solve_two_step(rm, opts);
    ASSERT_EQ(r.status, milp::SolveStatus::kOptimal)
        << "strategy " << static_cast<int>(strategy);
    const StressMap stress = compute_stress(f.design, r.floorplan);
    EXPECT_LE(stress.max_accumulated(), kDmuStress + 1e-5);
  }
}

TEST(TwoStep, DiveStatsArepopulated) {
  Fixture f(8, 4);
  const TwoStepResult r = solve_two_step(f.model(kDmuStress + 1e-6), {});
  ASSERT_EQ(r.status, milp::SolveStatus::kOptimal);
  EXPECT_GT(r.stats.dive_rounds, 0);
  EXPECT_GT(r.stats.lp_iterations, 0);
  EXPECT_EQ(r.stats.vars_total, 8 * 16);
  EXPECT_EQ(r.stats.vars_fixed, 8);  // every op committed exactly once
}

// A root LP that stops on a solver limit proves nothing either way: the
// dive reports that limit, as the one-shot fix does, instead of a node
// limit it never reached.
TEST(TwoStep, DiveRootLpLimitKeepsItsStatus) {
  Fixture f(8, 4);
  const RemapModel rm = f.model(kDmuStress + 1e-6);
  for (const RoundingStrategy strategy :
       {RoundingStrategy::kIterativeDive,
        RoundingStrategy::kThresholdFixOnce}) {
    TwoStepOptions opts;
    opts.strategy = strategy;
    opts.lp.max_iters = 1;
    const TwoStepResult r = solve_two_step(rm, opts);
    EXPECT_EQ(r.stats.lp_status, milp::SolveStatus::kIterLimit);
    EXPECT_EQ(r.status, milp::SolveStatus::kIterLimit)
        << "strategy " << static_cast<int>(strategy) << ": "
        << milp::to_string(r.status);
    EXPECT_TRUE(r.floorplan.op_to_pe.empty());
  }
}

TEST(TwoStep, MinPerturbationKeepsFeasibleIdentity) {
  Fixture f(4, 4);
  // Loose target: identity is feasible and perturbation-minimal.
  const RemapModel rm = f.model(10.0);
  const TwoStepResult r = solve_two_step(rm, {});
  ASSERT_EQ(r.status, milp::SolveStatus::kOptimal);
  EXPECT_EQ(r.floorplan.op_to_pe, f.base.op_to_pe);
}

}  // namespace
}  // namespace cgraf::core
