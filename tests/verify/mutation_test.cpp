// Mutation-style tests: run the real two-step solver on a small instance,
// then corrupt the accepted result and check the certifier catches every
// corruption. This is the wall that keeps a solver regression from silently
// shipping illegal floorplans.
#include <gtest/gtest.h>

#include "cgrra/stress.h"
#include "core/probe_session.h"
#include "core/two_step.h"
#include "verify/certify.h"

namespace cgraf::verify {
namespace {

constexpr double kDmuStress = 3.14 / 5.0;

// Two contexts with packed DMU ops: balancing them spreads one op per PE.
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
      base.op_to_pe.push_back(i / 2);
    }
  }

  core::RemapModelSpec spec(double st_target) const {
    core::RemapModelSpec s;
    s.design = &design;
    s.base = &base;
    s.frozen.assign(design.ops.size(), 0);
    s.candidates.assign(design.ops.size(), {});
    for (auto& c : s.candidates)
      for (int pe = 0; pe < design.fabric.num_pes(); ++pe) c.push_back(pe);
    s.st_target = st_target;
    return s;
  }

  core::RemapModel model(double st_target) const {
    return core::build_remap_model(spec(st_target));
  }
};

TEST(Mutation, TwoStepResultIsCertifiedEndToEnd) {
  const Fixture f(8, 4);
  const core::RemapModel rm = f.model(kDmuStress + 1e-6);
  core::TwoStepOptions opts;
  opts.verify.enabled = true;
  const core::TwoStepResult r = solve_two_step(rm, opts);
  ASSERT_EQ(r.status, milp::SolveStatus::kOptimal);
  EXPECT_TRUE(r.certified);
  EXPECT_TRUE(r.certify_error.empty());

  FloorplanSpec spec;
  spec.design = &f.design;
  spec.st_target = kDmuStress + 1e-6;
  EXPECT_TRUE(certify_floorplan(spec, r.floorplan).ok);
}

TEST(Mutation, MovingOneOpOntoALoadedPeIsRejected) {
  const Fixture f(8, 4);
  const core::RemapModel rm = f.model(kDmuStress + 1e-6);
  const core::TwoStepResult r = solve_two_step(rm, {});
  ASSERT_EQ(r.status, milp::SolveStatus::kOptimal);

  // Rebind op 0 onto the PE op 2 occupies. Both live in context 0, so the
  // mutant breaks exclusivity AND doubles that PE's accumulated stress.
  Floorplan mutant = r.floorplan;
  mutant.op_to_pe[0] = mutant.pe_of(2);
  FloorplanSpec spec;
  spec.design = &f.design;
  spec.st_target = kDmuStress + 1e-6;
  const Certificate cert = certify_floorplan(spec, mutant);
  EXPECT_FALSE(cert.ok);
  bool exclusivity = false, stress = false;
  for (const CertifyIssue& i : cert.issues) {
    exclusivity |= i.check == "exclusivity";
    stress |= i.check == "stress";
  }
  EXPECT_TRUE(exclusivity);
  EXPECT_TRUE(stress);
}

TEST(Mutation, PerturbedSolutionVectorIsRejected) {
  const Fixture f(8, 4);
  const core::RemapModel rm = f.model(kDmuStress + 1e-6);
  core::TwoStepOptions opts;
  opts.verify.enabled = true;
  const core::TwoStepResult r = solve_two_step(rm, opts);
  ASSERT_EQ(r.status, milp::SolveStatus::kOptimal);

  // Write the floorplan back as a model solution vector, then flip one
  // assignment bit on (without turning its sibling off): the mutant violates
  // the op's exactly-one partition row.
  std::vector<double> x(static_cast<std::size_t>(rm.model.num_vars()), 0.0);
  for (std::size_t op = 0; op < rm.assign_vars.size(); ++op) {
    for (std::size_t c = 0; c < rm.assign_vars[op].size(); ++c) {
      if (rm.candidates[op][c] == r.floorplan.pe_of(static_cast<int>(op)))
        x[static_cast<std::size_t>(rm.assign_vars[op][c])] = 1.0;
    }
  }
  ASSERT_TRUE(certify_solution(rm.model, x).ok);

  std::vector<double> mutant = x;
  for (const int v : rm.assign_vars[0]) {
    if (mutant[static_cast<std::size_t>(v)] == 0.0) {
      mutant[static_cast<std::size_t>(v)] = 1.0;
      break;
    }
  }
  const Certificate cert = certify_solution(rm.model, mutant);
  EXPECT_FALSE(cert.ok);
  EXPECT_FALSE(cert.summary() == "certified");
}

TEST(Mutation, CertifierRejectionDowngradesTwoStepStatus) {
  // At a target below the single-op stress the solver itself reports
  // infeasible — certification must never resurrect such a run, and an
  // enabled verifier must leave feasible runs untouched.
  const Fixture f(8, 4);
  core::TwoStepOptions opts;
  opts.verify.enabled = true;
  const core::TwoStepResult bad = solve_two_step(f.model(0.5 * kDmuStress),
                                                 opts);
  EXPECT_NE(bad.status, milp::SolveStatus::kOptimal);
  EXPECT_FALSE(bad.certified);

  // The LP probe certifies its relaxed point the same way.
  core::ProbeSession session(f.spec(kDmuStress), opts);
  const core::TwoStepResult relaxed = session.solve_lp(kDmuStress);
  EXPECT_EQ(relaxed.status, milp::SolveStatus::kOptimal);
  EXPECT_TRUE(relaxed.certified);
}

}  // namespace
}  // namespace cgraf::verify
