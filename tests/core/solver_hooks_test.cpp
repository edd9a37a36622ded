// A solver hook that no remap strategy sets: the cooperative cancel flag
// (LpOptions/MipOptions/TwoStepOptions/LocalSearchOptions::cancel, and the
// ProbeSession that forwards TwoStepOptions::cancel).
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/local_search.h"
#include "core/probe_session.h"
#include "core/two_step.h"
#include "milp/branch_and_bound.h"

namespace cgraf::core {
namespace {

constexpr double kDmuStress = 3.14 / 5.0;

// n kMux ops over 2 contexts on a dim x dim fabric, packed onto the low PEs
// so balancing requires moves.
struct Fixture {
  Design design;
  Floorplan base;
  RemapModelSpec spec;

  Fixture(int n, int dim) : design{Fabric(dim, dim), 2, {}, {}} {
    for (int i = 0; i < n; ++i) {
      Operation op;
      op.id = i;
      op.kind = OpKind::kMux;
      op.context = i % 2;
      design.ops.push_back(op);
      base.op_to_pe.push_back(i / 2);
    }
    spec.design = &design;
    spec.base = &base;
    spec.frozen.assign(design.ops.size(), 0);
    spec.candidates.assign(design.ops.size(), {});
    for (auto& c : spec.candidates)
      for (int pe = 0; pe < design.fabric.num_pes(); ++pe) c.push_back(pe);
  }
};

TEST(SolverHooks, RaisedCancelFlagStopsEverySolver) {
  // A flag raised before the call stops each solver at its first check.
  // Each solver first runs without it on the same instance and succeeds,
  // so the flag is what stops it.
  Fixture f(8, 4);
  f.spec.st_target = kDmuStress + 1e-6;  // one op per PE: the base overshoots
  const RemapModel rm = build_remap_model(f.spec);
  ASSERT_FALSE(rm.trivially_infeasible);
  const std::atomic<bool> cancel{true};

  TwoStepOptions dive;  // the iterated LP dive
  ASSERT_EQ(solve_two_step(rm, dive).status, milp::SolveStatus::kOptimal);
  dive.cancel = &cancel;
  const TwoStepResult dived = solve_two_step(rm, dive);
  EXPECT_EQ(dived.status, milp::SolveStatus::kCancelled);
  EXPECT_EQ(dived.stats.dive_rounds, 0);

  // The presearch's LP probe: the session hands the flag to its engine.
  ProbeSession free_session(f.spec, {});
  ASSERT_EQ(free_session.solve_lp(f.spec.st_target).status,
            milp::SolveStatus::kOptimal);
  TwoStepOptions probe;
  probe.cancel = &cancel;
  ProbeSession cancelled_session(f.spec, probe);
  const TwoStepResult probed = cancelled_session.solve_lp(f.spec.st_target);
  EXPECT_EQ(probed.status, milp::SolveStatus::kCancelled);
  EXPECT_EQ(probed.stats.lp_iterations, 0);

  // Two workers as well: both must see the flag and leave the pool.
  for (const int threads : {1, 2}) {
    milp::MipOptions mo;
    mo.num_threads = threads;
    mo.stop_at_first_incumbent = true;
    ASSERT_TRUE(solve_milp(rm.model, mo).has_solution()) << threads;
    mo.cancel = &cancel;
    const milp::MipResult mr = solve_milp(rm.model, mo);
    EXPECT_EQ(mr.status, milp::SolveStatus::kCancelled) << threads;
    EXPECT_FALSE(mr.has_solution()) << threads;
    EXPECT_EQ(mr.nodes, 0) << threads;
  }

  LocalSearchOptions ls;
  ls.seed = 5;
  ASSERT_TRUE(local_search_remap(f.spec, ls).feasible);
  ls.cancel = &cancel;
  const LocalSearchResult lsr = local_search_remap(f.spec, ls);
  EXPECT_FALSE(lsr.feasible);
  EXPECT_EQ(lsr.stats.moves_examined, 0);
}

}  // namespace
}  // namespace cgraf::core
