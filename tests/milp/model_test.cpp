#include "milp/model.h"

#include <gtest/gtest.h>

namespace cgraf::milp {
namespace {

TEST(Model, AddVarReturnsSequentialIndices) {
  Model m;
  EXPECT_EQ(m.add_continuous(0, 1), 0);
  EXPECT_EQ(m.add_binary(), 1);
  EXPECT_EQ(m.add_var(-1, 1, 2.0, VarType::kInteger), 2);
  EXPECT_EQ(m.num_vars(), 3);
  EXPECT_EQ(m.var(1).type, VarType::kBinary);
  EXPECT_DOUBLE_EQ(m.var(2).obj, 2.0);
}

TEST(Model, ConstraintMergesDuplicateTerms) {
  Model m;
  const int x = m.add_continuous(0, 10);
  const int y = m.add_continuous(0, 10);
  const int c = m.add_le({{x, 1.0}, {y, 2.0}, {x, 3.0}}, 5.0);
  const Constraint& con = m.constraint(c);
  ASSERT_EQ(con.terms.size(), 2u);
  EXPECT_EQ(con.terms[0].first, x);
  EXPECT_DOUBLE_EQ(con.terms[0].second, 4.0);
  EXPECT_DOUBLE_EQ(con.terms[1].second, 2.0);
}

TEST(Model, ConstraintDropsCancelledTerms) {
  Model m;
  const int x = m.add_continuous(0, 10);
  const int y = m.add_continuous(0, 10);
  const int c = m.add_le({{x, 1.0}, {x, -1.0}, {y, 1.0}}, 5.0);
  ASSERT_EQ(m.constraint(c).terms.size(), 1u);
  EXPECT_EQ(m.constraint(c).terms[0].first, y);
}

TEST(Model, BoundAndObjectiveUpdates) {
  Model m;
  const int x = m.add_binary();
  m.set_bounds(x, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(m.var(x).lb, 1.0);
  m.set_obj(x, -3.0);
  EXPECT_DOUBLE_EQ(m.var(x).obj, -3.0);
  m.relax_var(x);
  EXPECT_EQ(m.var(x).type, VarType::kContinuous);
}

TEST(Model, MaxViolationMeasuresBoundsRowsIntegrality) {
  Model m;
  const int x = m.add_binary();
  const int y = m.add_continuous(0, 2);
  m.add_le({{x, 1.0}, {y, 1.0}}, 1.0);

  EXPECT_DOUBLE_EQ(m.max_violation({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.max_violation({0.0, 3.0}), 2.0);   // bound + row
  EXPECT_DOUBLE_EQ(m.max_violation({1.0, 1.0}), 1.0);   // row by 1
  EXPECT_DOUBLE_EQ(m.max_violation({0.4, 0.0}, true), 0.4);  // fractional
  EXPECT_DOUBLE_EQ(m.max_violation({0.4, 0.0}, false), 0.0);
}

TEST(Model, ObjectiveValue) {
  Model m;
  m.add_continuous(0, 10, 2.0);
  m.add_continuous(0, 10, -1.0);
  EXPECT_DOUBLE_EQ(m.objective_value({3.0, 4.0}), 2.0);
}

TEST(Model, RangedConstraintViolatesOnBothSides) {
  Model m;
  const int x = m.add_continuous(-10, 10);
  m.add_constraint({{x, 1.0}}, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(m.max_violation({1.0}), 1.0);
  EXPECT_DOUBLE_EQ(m.max_violation({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.max_violation({6.0}), 2.0);
}

}  // namespace
}  // namespace cgraf::milp
