#include "verify/certify.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "cgrra/stress.h"
#include "milp/model.h"
#include "verify/kahan.h"

namespace cgraf::verify {
namespace {

bool has_issue(const Certificate& cert, const char* check) {
  for (const CertifyIssue& i : cert.issues)
    if (i.check == check) return true;
  return false;
}

TEST(KahanSum, CompensatesCatastrophicCancellation) {
  KahanSum s;
  s.add(1.0);
  s.add(1e100);
  s.add(1.0);
  s.add(-1e100);
  EXPECT_DOUBLE_EQ(s.value(), 2.0);  // naive summation returns 0
}

TEST(KahanSum, ManySmallIncrements) {
  KahanSum s;
  s.add(1e16);
  for (int i = 0; i < 10; ++i) s.add(1.0);
  EXPECT_DOUBLE_EQ(s.value() - 1e16, 10.0);
}

TEST(KahanDot, MatchesExactArithmetic) {
  const std::vector<std::pair<int, double>> terms = {
      {0, 1e8}, {1, 1.0}, {2, -1e8}};
  const std::vector<double> x = {1.0, 0.5, 1.0};
  EXPECT_DOUBLE_EQ(kahan_dot(terms, x), 0.5);
}

milp::Model knapsack_model() {
  milp::Model m;
  const int x = m.add_binary(3.0, "x");
  const int y = m.add_binary(2.0, "y");
  m.add_le({{x, 2.0}, {y, 1.0}}, 2.0, "capacity");
  return m;
}

TEST(CertifySolution, AcceptsFeasibleIntegerPoint) {
  const milp::Model m = knapsack_model();
  const Certificate cert = certify_solution(m, {1.0, 0.0});
  EXPECT_TRUE(cert.ok);
  EXPECT_TRUE(cert.issues.empty());
  EXPECT_DOUBLE_EQ(cert.objective, 3.0);
  EXPECT_EQ(cert.summary(), "certified");
}

TEST(CertifySolution, RejectsWrongShape) {
  const Certificate cert = certify_solution(knapsack_model(), {1.0});
  EXPECT_FALSE(cert.ok);
  EXPECT_TRUE(has_issue(cert, "shape"));
}

TEST(CertifySolution, RejectsNonFiniteEntries) {
  const Certificate cert = certify_solution(
      knapsack_model(), {std::numeric_limits<double>::quiet_NaN(), 0.0});
  EXPECT_FALSE(cert.ok);
  EXPECT_TRUE(has_issue(cert, "finite"));
}

TEST(CertifySolution, RejectsBoundViolation) {
  const Certificate cert = certify_solution(knapsack_model(), {2.0, 0.0});
  EXPECT_FALSE(cert.ok);
  EXPECT_TRUE(has_issue(cert, "bounds"));
  EXPECT_GT(cert.max_bound_violation, 0.5);
}

TEST(CertifySolution, RejectsFractionalUnlessRelaxed) {
  const milp::Model m = knapsack_model();
  const Certificate strict = certify_solution(m, {0.5, 0.5});
  EXPECT_FALSE(strict.ok);
  EXPECT_TRUE(has_issue(strict, "integrality"));
  const Certificate relaxed =
      certify_solution(m, {0.5, 0.5}, {}, /*relaxed=*/true);
  EXPECT_TRUE(relaxed.ok);
}

TEST(CertifySolution, RejectsRowViolation) {
  const Certificate cert = certify_solution(knapsack_model(), {1.0, 1.0});
  EXPECT_FALSE(cert.ok);
  EXPECT_TRUE(has_issue(cert, "row-feasibility"));
  EXPECT_NEAR(cert.max_row_violation, 1.0, 1e-12);
}

TEST(CertifySolution, ChecksClaimedObjective) {
  const milp::Model m = knapsack_model();
  const double right = 3.0;
  EXPECT_TRUE(certify_solution(m, {1.0, 0.0}, {}, false, &right).ok);
  const double wrong = 4.0;
  const Certificate cert = certify_solution(m, {1.0, 0.0}, {}, false, &wrong);
  EXPECT_FALSE(cert.ok);
  EXPECT_TRUE(has_issue(cert, "objective"));
}

TEST(Certificate, JsonCarriesIssues) {
  const Certificate cert = certify_solution(knapsack_model(), {1.0, 1.0});
  const std::string json = cert.to_json();
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("row-feasibility"), std::string::npos);
}

// --- Floorplan-level certification. Two contexts on a 2x2 fabric; op0/op1
// in context 0, op2 in context 1.

Design two_context_design() {
  Design d{Fabric(2, 2), 2, {}, {}};
  auto add = [&](OpKind kind, int ctx) {
    Operation op;
    op.id = d.num_ops();
    op.kind = kind;
    op.bitwidth = 32;
    op.context = ctx;
    d.ops.push_back(op);
    return op.id;
  };
  const int a = add(OpKind::kAdd, 0);
  const int b = add(OpKind::kMux, 0);
  add(OpKind::kAdd, 1);
  d.edges.push_back(Edge{a, b});  // combinational chain inside context 0
  return d;
}

TEST(CertifyFloorplan, AcceptsLegalFloorplan) {
  const Design d = two_context_design();
  FloorplanSpec spec;
  spec.design = &d;
  const Certificate cert = certify_floorplan(spec, Floorplan{{0, 1, 2}});
  EXPECT_TRUE(cert.ok);
}

TEST(CertifyFloorplan, RejectsShapeMismatchAndOutOfFabric) {
  const Design d = two_context_design();
  FloorplanSpec spec;
  spec.design = &d;
  EXPECT_TRUE(has_issue(certify_floorplan(spec, Floorplan{{0, 1}}), "shape"));
  EXPECT_TRUE(
      has_issue(certify_floorplan(spec, Floorplan{{0, 1, 9}}), "shape"));
}

TEST(CertifyFloorplan, RejectsExclusivityViolation) {
  const Design d = two_context_design();
  FloorplanSpec spec;
  spec.design = &d;
  // op0 and op1 share context 0 and PE 0; op2 (context 1) may reuse PE 0.
  const Certificate cert = certify_floorplan(spec, Floorplan{{0, 0, 0}});
  EXPECT_FALSE(cert.ok);
  EXPECT_TRUE(has_issue(cert, "exclusivity"));
}

TEST(CertifyFloorplan, RejectsStressAboveTarget) {
  const Design d = two_context_design();
  const Floorplan fp{{0, 1, 0}};
  const StressMap stress = compute_stress(d, fp);
  FloorplanSpec spec;
  spec.design = &d;
  spec.st_target = stress.max_accumulated();  // exactly at the max: legal
  EXPECT_TRUE(certify_floorplan(spec, fp).ok);
  spec.st_target = stress.max_accumulated() * 0.5;
  const Certificate cert = certify_floorplan(spec, fp);
  EXPECT_FALSE(cert.ok);
  EXPECT_TRUE(has_issue(cert, "stress"));
  // A NaN bound compares false against every stress; it must fail closed
  // instead of reading as "no bound".
  spec.st_target = std::numeric_limits<double>::quiet_NaN();
  const Certificate nan_cert = certify_floorplan(spec, fp);
  EXPECT_FALSE(nan_cert.ok);
  EXPECT_TRUE(has_issue(nan_cert, "stress"));
}

TEST(CertifyFloorplan, RejectsMovedFrozenOp) {
  const Design d = two_context_design();
  const Floorplan reference{{0, 1, 2}};
  FloorplanSpec spec;
  spec.design = &d;
  spec.reference = &reference;
  spec.frozen = {1, 0, 0};
  EXPECT_TRUE(certify_floorplan(spec, Floorplan{{0, 3, 2}}).ok);
  const Certificate cert = certify_floorplan(spec, Floorplan{{1, 0, 2}});
  EXPECT_FALSE(cert.ok);
  EXPECT_TRUE(has_issue(cert, "frozen"));
}

TEST(CertifyFloorplan, RejectsPathOverBudget) {
  const Design d = two_context_design();
  timing::TimingPath path;
  path.context = 0;
  path.ops = {0, 1};
  const std::vector<timing::TimingPath> monitored = {path};
  FloorplanSpec spec;
  spec.design = &d;
  spec.monitored = &monitored;
  // Adjacent PEs: one wire unit. Budget exactly covers it.
  const Floorplan tight{{0, 1, 2}};
  spec.cpd_ns = timing::path_delay_ns(d, tight, path);
  EXPECT_TRUE(certify_floorplan(spec, tight).ok);
  // Diagonal corners double the wire length and bust the same budget.
  const Certificate cert = certify_floorplan(spec, Floorplan{{0, 3, 2}});
  EXPECT_FALSE(cert.ok);
  EXPECT_TRUE(has_issue(cert, "path-budget"));
}

TEST(CertifyFloorplan, MaxIssuesCapsCollection) {
  const Design d = two_context_design();
  FloorplanSpec spec;
  spec.design = &d;
  spec.st_target = 0.0;  // every loaded PE violates
  CertifyOptions opts;
  opts.max_issues = 1;
  const Certificate cert = certify_floorplan(spec, Floorplan{{0, 1, 2}}, opts);
  EXPECT_FALSE(cert.ok);
  EXPECT_EQ(cert.issues.size(), 1u);
}

}  // namespace
}  // namespace cgraf::verify
