// Randomized dual-vs-primal equivalence corpus (labelled `slow`) on boxed
// LPs. Cold solves run the primal loop alone and must reproduce pinned
// outcomes, recorded from a cold dual simplex run with steepest-edge
// pricing (on which the primal and Devex-priced dual runs agreed). Along
// warm re-solve chains of tightening bounds (the B&B / probe-session access
// pattern) the dual loop runs first, and every step must reach exactly the
// verdict and objective of a cold solve of the same bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <vector>

#include "milp/model.h"
#include "milp/simplex.h"
#include "util/rng.h"

namespace cgraf::milp {
namespace {

// Every column boxed with finite bounds, mixed row senses, random sense.
Model random_boxed_lp(Rng& rng, int max_vars, int max_rows) {
  Model m;
  const int nv = 3 + static_cast<int>(
                         rng.next_below(static_cast<std::uint64_t>(max_vars)));
  const int nc = 2 + static_cast<int>(
                         rng.next_below(static_cast<std::uint64_t>(max_rows)));
  for (int j = 0; j < nv; ++j) {
    const double lo = rng.next_double() * 2 - 1;
    m.add_continuous(lo, lo + 0.5 + rng.next_double() * 4,
                     rng.next_double() * 10 - 5);
  }
  for (int r = 0; r < nc; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < nv; ++j)
      if (rng.next_bool(0.55))
        terms.emplace_back(j, rng.next_double() * 6 - 3);
    if (terms.empty()) terms.emplace_back(0, 1.0);
    const double rhs = rng.next_double() * 8 - 2;
    switch (rng.next_below(3)) {
      case 0: m.add_le(std::move(terms), rhs); break;
      case 1: m.add_ge(std::move(terms), -rhs); break;
      default:
        m.add_constraint(std::move(terms), -2.5 - rhs, 2.5 + rhs);
        break;
    }
  }
  if (rng.next_bool(0.5)) m.set_sense(Sense::kMaximize);
  return m;
}

void expect_same(const LpResult& warm, const LpResult& cold,
                 const char* label) {
  ASSERT_EQ(warm.status, cold.status) << label;
  if (cold.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(warm.obj, cold.obj, 1e-6 * (1.0 + std::abs(cold.obj)))
        << label;
  }
}

// A recorded outcome. The objective is compared only for optimal pins.
struct Pin {
  SolveStatus status;
  double obj;
};

// random_boxed_lp(Rng(52000 + i), 14, 10) for i = 0..119, solved cold by
// the dual simplex loop with steepest-edge pricing.
constexpr Pin kColdPins[] = {
    {SolveStatus::kOptimal, -26.850036058038413},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, -9.2298622861915423},
    {SolveStatus::kOptimal, -8.1641793162978331},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 37.320454781143489},
    {SolveStatus::kOptimal, 10.877381694921839},
    {SolveStatus::kOptimal, 19.137044373463279},
    {SolveStatus::kOptimal, 7.9485417878703668},
    {SolveStatus::kOptimal, 10.882193513579001},
    {SolveStatus::kOptimal, 28.817097845056569},
    {SolveStatus::kOptimal, -45.525011530830987},
    {SolveStatus::kOptimal, -43.044054091215223},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 2.492780137732916},
    {SolveStatus::kOptimal, -14.791564477987377},
    {SolveStatus::kOptimal, 52.369407008512539},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 7.4423633255203612},
    {SolveStatus::kOptimal, 45.818494079109456},
    {SolveStatus::kOptimal, 23.748416301806685},
    {SolveStatus::kOptimal, 23.874547244526095},
    {SolveStatus::kOptimal, -49.465685150336569},
    {SolveStatus::kOptimal, -0.87473457375377728},
    {SolveStatus::kOptimal, -5.5206365589972979},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, -86.335842349804309},
    {SolveStatus::kOptimal, 27.961514713092537},
    {SolveStatus::kOptimal, -18.33611379815256},
    {SolveStatus::kOptimal, -11.76740396871436},
    {SolveStatus::kOptimal, -51.023415925257844},
    {SolveStatus::kOptimal, -9.8414072908537271},
    {SolveStatus::kOptimal, 2.1367027165664449},
    {SolveStatus::kOptimal, 16.319358943395475},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, -21.118577110226056},
    {SolveStatus::kOptimal, 10.202334880301208},
    {SolveStatus::kOptimal, 32.846190304767852},
    {SolveStatus::kOptimal, 20.619805425005804},
    {SolveStatus::kOptimal, -1.4999849265462326},
    {SolveStatus::kOptimal, -12.891662757159049},
    {SolveStatus::kOptimal, 19.551329042632574},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 51.645398495268523},
    {SolveStatus::kOptimal, 8.9697012209720537},
    {SolveStatus::kOptimal, -40.540619384275949},
    {SolveStatus::kOptimal, -7.0472107178685359},
    {SolveStatus::kOptimal, -26.656500033257384},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, -35.999398337985994},
    {SolveStatus::kOptimal, -10.687324239884191},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, -46.643524488348291},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 11.112928842978086},
    {SolveStatus::kOptimal, -2.2523826355525118},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 19.62640257737467},
    {SolveStatus::kOptimal, -20.980440999930504},
    {SolveStatus::kOptimal, 15.853571244716804},
    {SolveStatus::kOptimal, 12.35062453350735},
    {SolveStatus::kOptimal, 26.031934739029627},
    {SolveStatus::kOptimal, 24.091542268196751},
    {SolveStatus::kOptimal, -27.181413971671127},
    {SolveStatus::kOptimal, 23.280358608229147},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 14.111162409084757},
    {SolveStatus::kOptimal, 8.2590756981624249},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 16.555447553042573},
    {SolveStatus::kOptimal, 3.9258919799912091},
    {SolveStatus::kOptimal, -34.855608091352892},
    {SolveStatus::kOptimal, -27.601458665856775},
    {SolveStatus::kOptimal, 0.28956874685725853},
    {SolveStatus::kOptimal, -30.07760161420175},
    {SolveStatus::kOptimal, 4.4524010092948796},
    {SolveStatus::kOptimal, -13.97082085285799},
    {SolveStatus::kOptimal, -32.160807531000685},
    {SolveStatus::kOptimal, -30.97379457640449},
    {SolveStatus::kOptimal, 13.235521300144439},
    {SolveStatus::kOptimal, -12.868735409173375},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 50.872709429058645},
    {SolveStatus::kOptimal, -5.5190294592025895},
    {SolveStatus::kOptimal, 8.5733418763692253},
    {SolveStatus::kOptimal, 2.9579356644532147},
    {SolveStatus::kOptimal, 35.410310717246126},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, -0.96699661854932195},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 38.538660552836106},
    {SolveStatus::kOptimal, 12.042481177236873},
    {SolveStatus::kOptimal, 0.38669132004315498},
    {SolveStatus::kOptimal, -22.274297775045401},
    {SolveStatus::kOptimal, 13.698889800778444},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, -14.426003393167131},
    {SolveStatus::kOptimal, 45.144266035678179},
    {SolveStatus::kOptimal, 3.4187999290959223},
    {SolveStatus::kOptimal, 25.375455576069733},
    {SolveStatus::kOptimal, 3.3378737751388643},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, -6.8889487398124656},
    {SolveStatus::kOptimal, -21.815466541669196},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, -43.563931762194592},
    {SolveStatus::kOptimal, -22.211993829718409},
    {SolveStatus::kOptimal, -7.6154853252649124},
    {SolveStatus::kOptimal, -14.095779750499299},
    {SolveStatus::kOptimal, 42.75140343485846},
    {SolveStatus::kOptimal, -49.334783574707835},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, -1.9176028472486149},
    {SolveStatus::kOptimal, -57.499660732844326},
    {SolveStatus::kOptimal, -30.88275344275381},
    {SolveStatus::kOptimal, -9.0699858570752223},
    {SolveStatus::kInfeasible, 0},
    {SolveStatus::kOptimal, 25.010753027985317},
};
static_assert(std::size(kColdPins) == 120);

class DualEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DualEquivalence, ColdSolvesAgree) {
  Rng rng(52000 + static_cast<std::uint64_t>(GetParam()));
  const Model m = random_boxed_lp(rng, 14, 10);
  const Pin& pin = kColdPins[GetParam()];
  const LpResult r = solve_lp(m);
  EXPECT_FALSE(r.dual_used);
  ASSERT_EQ(r.status, pin.status);
  if (pin.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(r.obj, pin.obj, 1e-6 * (1.0 + std::abs(pin.obj)));
    EXPECT_LE(m.max_violation(r.x), 1e-6);
  }
}

TEST_P(DualEquivalence, WarmResolveChainsAgree) {
  Rng rng(53000 + static_cast<std::uint64_t>(GetParam()));
  const Model m = random_boxed_lp(rng, 12, 8);
  SimplexEngine warm_engine(m);
  SimplexEngine cold_engine(m);
  const LpResult root = warm_engine.solve();
  if (root.status != SolveStatus::kOptimal) return;

  // Chain of tightenings, each re-solved warm from the previous basis —
  // exactly how B&B descends and how probe sessions step — and checked
  // against a cold solve of the same bounds on a second engine.
  std::vector<double> lb = warm_engine.model_lb();
  std::vector<double> ub = warm_engine.model_ub();
  LpResult last = root;
  for (int step = 0; step < 6; ++step) {
    const auto v = static_cast<size_t>(rng.next_below(
        static_cast<std::uint64_t>(warm_engine.num_structural())));
    const double mid = lb[v] + 0.4 * (ub[v] - lb[v]);
    if (rng.next_bool(0.5)) ub[v] = mid; else lb[v] = mid;
    LpResult warm = warm_engine.solve(lb, ub, &last.basis);
    const LpResult cold = cold_engine.solve(lb, ub);
    expect_same(warm, cold, "chain step");
    if (cold.status != SolveStatus::kOptimal) break;
    last = std::move(warm);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualEquivalence, ::testing::Range(0, 120));

}  // namespace
}  // namespace cgraf::milp
