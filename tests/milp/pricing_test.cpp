// Candidate-list pricing must be an optimization, never a behaviour change:
// status and objective must match full Dantzig pricing on every model. The
// engine prices phase 2 only by candidate list, so the full-Dantzig
// outcomes are pins: the status and objective recorded with full Dantzig
// pricing for each seeded model below.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>

#include "milp/model.h"
#include "milp/simplex.h"
#include "util/rng.h"

namespace cgraf::milp {
namespace {

Model random_lp(Rng& rng, int max_vars, int max_rows) {
  Model m;
  const int nv =
      2 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_vars)));
  const int nc =
      1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_rows)));
  for (int j = 0; j < nv; ++j)
    m.add_continuous(0, 5 + rng.next_double() * 5, rng.next_double() * 10 - 5);
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

// The floorplanner's LP shape: assignment rows + capacity rows, with a
// dense-enough objective that phase 2 does real pricing work.
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

// A recorded outcome. The objective is compared only for optimal pins.
struct Pin {
  SolveStatus status;
  double obj;
};

// random_lp(Rng(31000 + i), 12, 9) for i = 0..39, full Dantzig pricing.
constexpr Pin kRandomPins[] = {
    {SolveStatus::kOptimal, -2.7759315750256404},
    {SolveStatus::kOptimal, 70.655073701658452},
    {SolveStatus::kOptimal, -58.958475270770286},
    {SolveStatus::kOptimal, -10.621520638733124},
    {SolveStatus::kOptimal, -85.587712428926466},
    {SolveStatus::kOptimal, 6.8592200882696428},
    {SolveStatus::kOptimal, 60.188179103906393},
    {SolveStatus::kOptimal, -3.9948316778007533},
    {SolveStatus::kOptimal, 92.242152456160923},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, -2.0222497148644574},
    {SolveStatus::kOptimal, -31.911639250600508},
    {SolveStatus::kOptimal, 26.445426841381142},
    {SolveStatus::kOptimal, -140.15048806608175},
    {SolveStatus::kOptimal, 35.184922565922825},
    {SolveStatus::kOptimal, 36.285569046008725},
    {SolveStatus::kOptimal, -25.737043702857832},
    {SolveStatus::kOptimal, -61.862656473242701},
    {SolveStatus::kOptimal, 113.58455910975911},
    {SolveStatus::kOptimal, 18.634039845795879},
    {SolveStatus::kOptimal, 11.36281868047441},
    {SolveStatus::kOptimal, 57.453353203825856},
    {SolveStatus::kOptimal, 67.745532163809202},
    {SolveStatus::kOptimal, 152.01051472987848},
    {SolveStatus::kOptimal, 4.0550595642856191},
    {SolveStatus::kOptimal, 2.9305932110580644},
    {SolveStatus::kOptimal, -65.010137244408114},
    {SolveStatus::kOptimal, 11.133962084993149},
    {SolveStatus::kOptimal, 67.634458116144813},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 0.83048111693396276},
    {SolveStatus::kOptimal, 49.768639730709104},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 62.247071997334054},
    {SolveStatus::kOptimal, -146.20778402010646},
    {SolveStatus::kOptimal, 33.333458999578262},
    {SolveStatus::kOptimal, 0.61063025314983399},
    {SolveStatus::kOptimal, 0.76604716814639073},
    {SolveStatus::kOptimal, 1.2994092151023773},
};
static_assert(std::size(kRandomPins) == 40);

// assignment_lp(seed, 32, 12) for seeds 1, 2, 3, full Dantzig pricing.
constexpr Pin kAssignmentPins[] = {
    {SolveStatus::kOptimal, 3.0089179124331187},
    {SolveStatus::kOptimal, 2.8362531654946279},
    {SolveStatus::kOptimal, 2.8886955582713538},
};

void expect_pinned(const Model& m, const Pin& pin, const char* label) {
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, pin.status) << label;
  if (pin.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(r.obj, pin.obj, 1e-6 * (1.0 + std::abs(pin.obj))) << label;
    EXPECT_LE(m.max_violation(r.x), 1e-6) << label;
  }
}

class PricingEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PricingEquivalence, RandomLpsAgree) {
  Rng rng(31000 + static_cast<std::uint64_t>(GetParam()));
  const Model m = random_lp(rng, 12, 9);
  expect_pinned(m, kRandomPins[GetParam()], "random");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PricingEquivalence, ::testing::Range(0, 40));

TEST(PricingEquivalenceAssignment, LargerStructuredModelsAgree) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    expect_pinned(assignment_lp(seed, 32, 12), kAssignmentPins[seed - 1],
                  "assignment");
  }
}

TEST(PricingEquivalenceAssignment, WarmStartedResolvesAgree) {
  const Model m = assignment_lp(7, 24, 10);
  SimplexEngine engine(m);
  const LpResult first = engine.solve();
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  // Tighten a handful of bounds and re-solve warm, as branch & bound does.
  std::vector<double> lb = engine.model_lb();
  std::vector<double> ub = engine.model_ub();
  for (int v = 0; v < 5; ++v) ub[static_cast<size_t>(v)] = 0.0;
  const LpResult warm = engine.solve(lb, ub, &first.basis);
  const LpResult cold = engine.solve(lb, ub);
  ASSERT_EQ(warm.status, cold.status);
  if (warm.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(warm.obj, cold.obj, 1e-6 * (1.0 + std::abs(cold.obj)));
  }
}

TEST(PricingInstrumentation, CandidateModeCountsIncrementalUpdates) {
  const Model m = assignment_lp(13, 32, 12);
  const LpResult rc = solve_lp(m);
  ASSERT_EQ(rc.status, SolveStatus::kOptimal);
  EXPECT_GT(rc.stats.incremental_updates, 0);
  EXPECT_GT(rc.stats.full_refreshes, 0);
  EXPECT_GT(rc.stats.bucket_rebuilds, 0);
}

}  // namespace
}  // namespace cgraf::milp
