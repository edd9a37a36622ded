// Bounded-variable revised simplex with sparse LU basis handling.
//
// The engine solves the LP relaxation of a Model. Branch & bound constructs
// one engine per model and re-solves with per-node structural bound
// overrides and warm-started bases, so the (potentially large) constraint
// matrix is standardized only once. The engine also keeps its work arrays
// and LU factors between solves, so a warm re-solve allocates only its
// result. One engine serves one thread; parallel callers copy it.
//
// There is one pivoting configuration. A cold solve runs the two-phase
// primal loop with candidate-list pricing. A solve from an accepted warm
// basis first runs a bound-flipping dual loop with dual steepest-edge row
// pricing; the primal loop then certifies every optimum with exact pricing.
#pragma once

#include <atomic>
#include <vector>

#include "milp/lu.h"
#include "milp/model.h"
#include "milp/sparse.h"

namespace cgraf::obs {
class EventLog;
}  // namespace cgraf::obs

namespace cgraf::milp {

enum class SolveStatus {
  kOptimal,     // proven optimal (LP) / gap closed (MIP)
  kFeasible,    // feasible incumbent, optimality not proven (limit hit)
  kInfeasible,  // proven infeasible
  kUnbounded,   // LP unbounded
  kIterLimit,   // iteration limit without a feasible point
  kTimeLimit,   // time limit without a feasible point
  kNodeLimit,   // node limit without a feasible point (MIP)
  kNumericalError,
  kCancelled,   // the caller raised the options' cancel flag
};

const char* to_string(SolveStatus s);

// Every LP solve's bound/row feasibility tolerance.
inline constexpr double kLpFeasTol = 1e-7;

struct LpOptions {
  long max_iters = 500000;
  double time_limit_s = 1e18;
  // When non-null and enabled, every solve() emits one "lp.solve" record
  // here (obs/event_log.h). The analyzer's LP-iteration totals sum these,
  // so the pointer is plumbed to EVERY engine (B&B children, dive LPs,
  // probe chains) or the totals would undercount.
  obs::EventLog* events = nullptr;
  // Cooperative cancellation: when non-null and set, the iteration loops
  // stop at the next limit check and the solve returns kCancelled. The
  // pointed-to flag must outlive every solve that sees it; a caller may
  // raise it from another thread to stop a solve early.
  const std::atomic<bool>* cancel = nullptr;
};

// Nonbasic/basic status of one column, used for warm starts.
enum class ColStatus : signed char {
  kBasic = 0,
  kAtLower = 1,
  kAtUpper = 2,
  kFreeZero = 3,
};

// Per-stage instrumentation of one or more solves. Additive so branch &
// bound / the two-step driver can aggregate across LPs and across threads.
struct LpStageStats {
  double pricing_seconds = 0.0;  // entering-column selection + d[] upkeep
  double ftran_seconds = 0.0;    // entering-column FTRANs
  double btran_seconds = 0.0;    // dual/pricing BTRANs
  double factor_seconds = 0.0;   // basis (re)factorizations
  double dse_seconds = 0.0;      // dual pricing-weight upkeep + recomputes
  long phase1_iterations = 0;    // iterations spent restoring feasibility
  long full_refreshes = 0;       // full reduced-cost recomputations
  long bucket_rebuilds = 0;      // candidate bucket rebuilds
  long incremental_updates = 0;  // pivots priced via the incremental path
  long dual_iterations = 0;      // pivots taken by the dual loop
  long bound_flips = 0;          // bound-to-bound flips (dual ratio test +
                                 // dual-feasibility repair)
  long refactorizations = 0;     // basis factorizations, incl. the initial
  long steepest_edge_resets = 0;  // periodic exact recomputes of the dual
                                  // steepest-edge weights
  long dual_fallbacks = 0;       // warm basis not repairable to dual
                                 // feasibility; primal ran instead

  void add(const LpStageStats& o) {
    pricing_seconds += o.pricing_seconds;
    ftran_seconds += o.ftran_seconds;
    btran_seconds += o.btran_seconds;
    factor_seconds += o.factor_seconds;
    dse_seconds += o.dse_seconds;
    phase1_iterations += o.phase1_iterations;
    full_refreshes += o.full_refreshes;
    bucket_rebuilds += o.bucket_rebuilds;
    incremental_updates += o.incremental_updates;
    dual_iterations += o.dual_iterations;
    bound_flips += o.bound_flips;
    refactorizations += o.refactorizations;
    steepest_edge_resets += o.steepest_edge_resets;
    dual_fallbacks += o.dual_fallbacks;
  }

  LpStageStats& operator+=(const LpStageStats& o) {
    add(o);
    return *this;
  }
};

struct LpResult {
  SolveStatus status = SolveStatus::kNumericalError;
  double obj = 0.0;                // in the model's original sense
  std::vector<double> x;           // structural variable values
  long iterations = 0;
  double seconds = 0.0;
  std::vector<ColStatus> basis;    // size n+m, for warm starting
  // The supplied warm basis was actually used. False when no basis was
  // given, when it was stale (wrong size / wrong basic count), or when its
  // factorization was singular — all of which silently restart from the
  // slack basis. Callers chaining bases across re-solves (the ST_target
  // probe sessions) use this to count warm hits vs fallbacks.
  bool warm_used = false;
  // The dual simplex loop ran for this solve: the warm basis was used and
  // could be made dual feasible. The reported optimum is still certified by
  // the primal loop's exact pricing pass.
  bool dual_used = false;
  LpStageStats stats;
};

class SimplexEngine {
 public:
  explicit SimplexEngine(const Model& model, LpOptions opts = {});

  // Solves with the given structural bounds (size n). `warm`, when given,
  // must be a basis vector previously returned by this engine.
  LpResult solve(const std::vector<double>& lb, const std::vector<double>& ub,
                 const std::vector<ColStatus>* warm = nullptr);

  // Solves with the model's own bounds.
  LpResult solve(const std::vector<ColStatus>* warm = nullptr);

  void set_options(const LpOptions& opts) { opts_ = opts; }

  // Re-ranges one row's bounds after construction (an RHS patch). The
  // constraint matrix is untouched, so previously returned bases remain
  // structurally valid warm starts: only the slack column's bounds move.
  void set_row_bounds(int row, double lb, double ub);

  int num_structural() const { return n_; }
  const std::vector<double>& model_lb() const { return model_lb_; }
  const std::vector<double>& model_ub() const { return model_ub_; }

 private:
  int n_ = 0;  // structural columns
  int m_ = 0;  // rows == slack columns
  CscMatrix a_;                 // n_ structural + m_ slack columns
  RowMajorMatrix a_rows_;       // row-major mirror for pricing updates
  std::vector<double> cost_;    // size n_+m_, minimization sense
  std::vector<double> model_lb_, model_ub_;  // structural bounds (size n_)
  std::vector<double> slack_lb_, slack_ub_;  // slack bounds (size m_)
  double sign_ = 1.0;           // +1 minimize, -1 maximize
  LpOptions opts_;

  // Candidate of the dual ratio test.
  struct DualCand {
    int j;
    double ratio;  // d_j / (sigma * alpha_j), >= 0 at dual feasibility
    double step;   // |alpha_j|
  };

  // The work state of a solve. The engine keeps it between solves so that a
  // re-solve reuses its buffers instead of allocating them: once they have
  // grown to fit, a warm re-solve allocates nothing but its LpResult. Every
  // solve re-initializes each buffer before reading it, so only capacity
  // carries over; nothing in here points outside it, so copies are safe.
  struct Work {
    std::vector<double> lb, ub;     // size n+m
    std::vector<ColStatus> status;  // size n+m
    std::vector<int> basis;         // size m: column at each basis position
    std::vector<double> x;          // size n+m
    BasisLu lu;
    // Scratch of the pricing, ratio-test and weight-update steps.
    std::vector<double> rhs, y, spike, rho, dw, flip_rhs, tau, e;  // size m
    std::vector<double> d, alpha;                                 // size n+m
    std::vector<char> alpha_mark;                                 // size n+m
    std::vector<int> bucket, alpha_touched, repair, flip_list;
    std::vector<DualCand> cands;
  };
  Work w_;
};

// One-shot convenience wrapper.
LpResult solve_lp(const Model& model, const LpOptions& opts = {});

}  // namespace cgraf::milp
