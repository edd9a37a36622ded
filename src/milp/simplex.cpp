#include "milp/simplex.h"

#include <algorithm>
#include <cmath>

#include "milp/lu.h"
#include "obs/event_log.h"
#include "util/check.h"
#include "util/clock.h"

namespace cgraf::milp {

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kFeasible: return "feasible";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterLimit: return "iteration-limit";
    case SolveStatus::kTimeLimit: return "time-limit";
    case SolveStatus::kNodeLimit: return "node-limit";
    case SolveStatus::kNumericalError: return "numerical-error";
    case SolveStatus::kCancelled: return "cancelled";
  }
  return "?";
}

namespace {

constexpr double kLpCostTol = 1e-7;   // reduced-cost (dual) tolerance
constexpr double kPivotZero = 1e-9;   // |w_i| below this cannot pivot
constexpr long kBlandTrigger = 2000;  // stalled iterations before Bland mode
constexpr double kRhoZero = 1e-12;    // pricing-update row entries below this
                                      // are treated as exact zeros
constexpr int kRefactorInterval = 100;  // LU updates between refactorizations
// Full reduced-cost refresh at least every this many incremental updates
// (numerical hygiene; refactorizations force one too).
constexpr long kPricingRefreshInterval = 64;
// Exact steepest-edge weight recompute every this many dual pivots (m
// BTRANs each time; keeps long dual runs from drifting).
constexpr long kDseRecomputeInterval = 128;
// Debug builds cross-check the incremental weights against an exact
// recompute every this many dual pivots (CGRAF_DCHECK).
[[maybe_unused]] constexpr long kDseCheckInterval = 64;

}  // namespace

SimplexEngine::SimplexEngine(const Model& model, LpOptions opts)
    : opts_(opts) {
  n_ = model.num_vars();
  m_ = model.num_constraints();
  a_ = build_computational_form(model);
  a_rows_ = build_row_major(a_);
  sign_ = model.sense() == Sense::kMinimize ? 1.0 : -1.0;

  cost_.assign(static_cast<size_t>(n_ + m_), 0.0);
  model_lb_.resize(static_cast<size_t>(n_));
  model_ub_.resize(static_cast<size_t>(n_));
  for (int j = 0; j < n_; ++j) {
    const Variable& v = model.var(j);
    cost_[static_cast<size_t>(j)] = sign_ * v.obj;
    model_lb_[static_cast<size_t>(j)] = v.lb;
    model_ub_[static_cast<size_t>(j)] = v.ub;
  }
  slack_lb_.resize(static_cast<size_t>(m_));
  slack_ub_.resize(static_cast<size_t>(m_));
  for (int r = 0; r < m_; ++r) {
    slack_lb_[static_cast<size_t>(r)] = model.constraint(r).lb;
    slack_ub_[static_cast<size_t>(r)] = model.constraint(r).ub;
  }
}

LpResult SimplexEngine::solve(const std::vector<ColStatus>* warm) {
  return solve(model_lb_, model_ub_, warm);
}

void SimplexEngine::set_row_bounds(int row, double lb, double ub) {
  CGRAF_ASSERT(row >= 0 && row < m_);
  CGRAF_ASSERT(lb <= ub);
  slack_lb_[static_cast<size_t>(row)] = lb;
  slack_ub_[static_cast<size_t>(row)] = ub;
}

LpResult SimplexEngine::solve(const std::vector<double>& lb,
                              const std::vector<double>& ub,
                              const std::vector<ColStatus>* warm) {
  CGRAF_ASSERT(static_cast<int>(lb.size()) == n_);
  CGRAF_ASSERT(static_cast<int>(ub.size()) == n_);
  const double t_start = now_seconds();
  const double tolf = kLpFeasTol;
  const double told = kLpCostTol;

  const int total = n_ + m_;
  const size_t m_size = static_cast<size_t>(m_);
  const size_t total_size = static_cast<size_t>(total);
  Work& w = w_;
  w.lb.resize(total_size);
  w.ub.resize(total_size);
  for (int j = 0; j < n_; ++j) {
    w.lb[static_cast<size_t>(j)] = lb[static_cast<size_t>(j)];
    w.ub[static_cast<size_t>(j)] = ub[static_cast<size_t>(j)];
  }
  for (int r = 0; r < m_; ++r) {
    w.lb[static_cast<size_t>(n_ + r)] = slack_lb_[static_cast<size_t>(r)];
    w.ub[static_cast<size_t>(n_ + r)] = slack_ub_[static_cast<size_t>(r)];
  }

  LpResult res;

  auto timed_ftran = [&](std::vector<double>& v) {
    const double t0 = now_seconds();
    w.lu.ftran(v);
    res.stats.ftran_seconds += now_seconds() - t0;
  };
  auto timed_btran = [&](std::vector<double>& v) {
    const double t0 = now_seconds();
    w.lu.btran(v);
    res.stats.btran_seconds += now_seconds() - t0;
  };
  auto timed_factorize = [&] {
    const double t0 = now_seconds();
    const bool ok = w.lu.factorize(a_, w.basis);
    res.stats.factor_seconds += now_seconds() - t0;
    ++res.stats.refactorizations;
    return ok;
  };

  auto default_status = [&](int j) {
    const double l = w.lb[static_cast<size_t>(j)];
    const double u = w.ub[static_cast<size_t>(j)];
    if (l != -kInf) return ColStatus::kAtLower;
    if (u != kInf) return ColStatus::kAtUpper;
    return ColStatus::kFreeZero;
  };

  // --- Build initial basis: warm start when usable, slack basis otherwise.
  bool warmed = false;
  if (warm != nullptr && static_cast<int>(warm->size()) == total) {
    w.status = *warm;
    w.basis.clear();
    for (int j = 0; j < total; ++j) {
      if (w.status[static_cast<size_t>(j)] == ColStatus::kBasic)
        w.basis.push_back(j);
    }
    if (static_cast<int>(w.basis.size()) == m_ && timed_factorize()) {
      // Sanitize nonbasic statuses against the (possibly tightened) bounds.
      for (int j = 0; j < total; ++j) {
        ColStatus& s = w.status[static_cast<size_t>(j)];
        if (s == ColStatus::kBasic) continue;
        if (s == ColStatus::kAtLower && w.lb[static_cast<size_t>(j)] == -kInf)
          s = default_status(j);
        if (s == ColStatus::kAtUpper && w.ub[static_cast<size_t>(j)] == kInf)
          s = default_status(j);
      }
      warmed = true;
    }
  }
  res.warm_used = warmed;
  if (!warmed) {
    w.status.assign(total_size, ColStatus::kAtLower);
    w.basis.resize(m_size);
    for (int j = 0; j < n_; ++j) w.status[static_cast<size_t>(j)] = default_status(j);
    for (int r = 0; r < m_; ++r) {
      w.basis[static_cast<size_t>(r)] = n_ + r;
      w.status[static_cast<size_t>(n_ + r)] = ColStatus::kBasic;
    }
    const bool ok = timed_factorize();
    CGRAF_ASSERT(ok);  // slack basis is -I, always nonsingular
  }

  w.x.assign(total_size, 0.0);
  auto nonbasic_value = [&](int j) {
    switch (w.status[static_cast<size_t>(j)]) {
      case ColStatus::kAtLower: return w.lb[static_cast<size_t>(j)];
      case ColStatus::kAtUpper: return w.ub[static_cast<size_t>(j)];
      default: return 0.0;
    }
  };

  std::vector<double>& rhs = w.rhs;
  rhs.assign(m_size, 0.0);
  auto recompute_basics = [&] {
    std::fill(rhs.begin(), rhs.end(), 0.0);
    for (int j = 0; j < total; ++j) {
      if (w.status[static_cast<size_t>(j)] == ColStatus::kBasic) continue;
      const double v = nonbasic_value(j);
      w.x[static_cast<size_t>(j)] = v;
      if (v != 0.0) a_.axpy_col(j, -v, rhs);
    }
    timed_ftran(rhs);
    for (int i = 0; i < m_; ++i)
      w.x[static_cast<size_t>(w.basis[static_cast<size_t>(i)])] =
          rhs[static_cast<size_t>(i)];
  };
  recompute_basics();

  auto total_infeasibility = [&] {
    double s = 0.0;
    for (int i = 0; i < m_; ++i) {
      const int j = w.basis[static_cast<size_t>(i)];
      const double xj = w.x[static_cast<size_t>(j)];
      s += std::max(0.0, xj - w.ub[static_cast<size_t>(j)]);
      s += std::max(0.0, w.lb[static_cast<size_t>(j)] - xj);
    }
    return s;
  };

  std::vector<double>& y = w.y;
  std::vector<double>& spike = w.spike;
  y.assign(m_size, 0.0);
  spike.assign(m_size, 0.0);
  long stalled = 0;
  double last_progress_metric = kInf;
  bool last_phase1 = true;

  // --- Candidate-list pricing state. `d` carries the phase-2 reduced cost
  // of every column (0 for basics) and is maintained across pivots by a
  // rank-one update from the BTRAN'd pivot row; it is only trusted while
  // `d_valid` holds, and is rebuilt exactly from scratch on phase changes,
  // refactorizations, and every kPricingRefreshInterval updates.
  std::vector<double>& d = w.d;
  d.assign(total_size, 0.0);
  bool d_valid = false;
  long updates_since_refresh = 0;
  std::vector<int>& bucket = w.bucket;
  bucket.clear();
  int rotate = 0;
  std::vector<double>& rho = w.rho;
  std::vector<double>& alpha = w.alpha;
  std::vector<char>& alpha_mark = w.alpha_mark;
  std::vector<int>& alpha_touched = w.alpha_touched;
  rho.assign(m_size, 0.0);
  alpha.assign(total_size, 0.0);
  alpha_mark.assign(total_size, 0);
  alpha_touched.clear();
  const int bucket_cap = std::clamp(total / 8, 16, 512);

  auto eligible = [&](int j, double dj) {
    const ColStatus s = w.status[static_cast<size_t>(j)];
    if (s == ColStatus::kBasic) return false;
    if (w.lb[static_cast<size_t>(j)] == w.ub[static_cast<size_t>(j)])
      return false;  // fixed, can never move
    if (s == ColStatus::kAtLower) return dj < -told;
    if (s == ColStatus::kAtUpper) return dj > told;
    return std::abs(dj) > told;  // free
  };

  // Exact rebuild of the whole reduced-cost vector (phase-2 costs).
  auto refresh_d = [&] {
    std::fill(y.begin(), y.end(), 0.0);
    for (int i = 0; i < m_; ++i)
      y[static_cast<size_t>(i)] =
          cost_[static_cast<size_t>(w.basis[static_cast<size_t>(i)])];
    timed_btran(y);
    const double t0 = now_seconds();
    for (int j = 0; j < total; ++j) {
      d[static_cast<size_t>(j)] =
          w.status[static_cast<size_t>(j)] == ColStatus::kBasic
              ? 0.0
              : cost_[static_cast<size_t>(j)] - a_.dot_col(j, y);
    }
    res.stats.pricing_seconds += now_seconds() - t0;
    d_valid = true;
    updates_since_refresh = 0;
    ++res.stats.full_refreshes;
  };

  // Refill the bucket with the most attractive eligible columns, scanning
  // round-robin from `rotate` so slow-moving columns still get their turn.
  auto rebuild_bucket = [&] {
    bucket.clear();
    const int scan_cap = 4 * bucket_cap;
    int scanned = 0;
    for (int k = 0; k < total && static_cast<int>(bucket.size()) < scan_cap;
         ++k) {
      const int j = (rotate + k) % total;
      scanned = k + 1;
      if (eligible(j, d[static_cast<size_t>(j)])) bucket.push_back(j);
    }
    rotate = (rotate + scanned) % total;
    if (static_cast<int>(bucket.size()) > bucket_cap) {
      std::nth_element(bucket.begin(), bucket.begin() + bucket_cap,
                       bucket.end(), [&](int a, int b) {
                         return std::abs(d[static_cast<size_t>(a)]) >
                                std::abs(d[static_cast<size_t>(b)]);
                       });
      bucket.resize(static_cast<size_t>(bucket_cap));
    }
    ++res.stats.bucket_rebuilds;
  };

  // Best still-eligible column in the bucket (dropping dead entries).
  auto pick_from_bucket = [&] {
    int best = -1;
    double best_abs = told;
    size_t keep = 0;
    for (const int j : bucket) {
      const double dj = d[static_cast<size_t>(j)];
      if (!eligible(j, dj)) continue;
      bucket[keep++] = j;
      if (std::abs(dj) > best_abs) {
        best_abs = std::abs(dj);
        best = j;
      }
    }
    bucket.resize(keep);
    return best;
  };

  auto finish = [&](SolveStatus st) {
    res.status = st;
    res.seconds = now_seconds() - t_start;
    res.basis = w.status;
    res.x.assign(w.x.begin(), w.x.begin() + n_);
    double obj = 0.0;
    for (int j = 0; j < n_; ++j)
      obj += cost_[static_cast<size_t>(j)] * w.x[static_cast<size_t>(j)];
    res.obj = sign_ * obj;
    // One record per LP solve, from the single exit point so the analyzer's
    // iteration totals cover every solve (node LPs, dives, probe chains).
    obs::Event ev(opts_.events, "lp.solve");
    if (ev.active()) {
      ev.arg("status", to_string(st))
          .arg("iterations", res.iterations)
          .arg("phase1_iterations", res.stats.phase1_iterations)
          .arg("dual_iterations", res.stats.dual_iterations)
          .arg("bound_flips", res.stats.bound_flips)
          .arg("refactorizations", res.stats.refactorizations)
          .arg("dual_fallbacks", res.stats.dual_fallbacks)
          .arg("warm_used", res.warm_used)
          .arg("dual_used", res.dual_used)
          .arg("obj", res.obj)
          .arg("seconds", res.seconds)
          .arg("factor_s", res.stats.factor_seconds)
          .arg("ftran_s", res.stats.ftran_seconds)
          .arg("btran_s", res.stats.btran_seconds)
          .arg("pricing_s", res.stats.pricing_seconds)
          .arg("dse_s", res.stats.dse_seconds);
    }
    // `res` is captured by reference: move it out, or every solve would
    // copy x and basis.
    return std::move(res);
  };

  long iter = 0;

  // ===== Dual simplex =====
  // Runs ahead of the primal loop on every warm solve — the B&B-child /
  // probe-chain case, where costs and matrix are unchanged so the previous
  // optimal basis stays dual feasible after a bound change. Pivots while
  // some basic violates a bound but the reduced costs stay dual feasible.
  // On every exit except a proven infeasibility certificate, control falls
  // through to the primal loop below, which certifies the result with exact
  // pricing (and takes zero pivots after a clean dual run).
  if (warmed && m_ > 0) {
    refresh_d();

    // --- Dual-feasibility repair: a nonbasic column whose reduced cost
    // points the wrong way is fine if it can flip to its other (finite)
    // bound; a free or one-sided violator makes this basis unusable for
    // the dual loop and we fall back to primal, keeping the basis.
    bool repairable = true;
    std::vector<int>& repair = w.repair;
    repair.clear();
    for (int j = 0; j < total; ++j) {
      const ColStatus s = w.status[static_cast<size_t>(j)];
      if (s == ColStatus::kBasic) continue;
      if (w.lb[static_cast<size_t>(j)] == w.ub[static_cast<size_t>(j)])
        continue;  // fixed: any reduced-cost sign is dual feasible
      const double dj = d[static_cast<size_t>(j)];
      if (s == ColStatus::kAtLower && dj < -told) {
        if (w.ub[static_cast<size_t>(j)] == kInf) {
          repairable = false;
          break;
        }
        repair.push_back(j);
      } else if (s == ColStatus::kAtUpper && dj > told) {
        if (w.lb[static_cast<size_t>(j)] == -kInf) {
          repairable = false;
          break;
        }
        repair.push_back(j);
      } else if (s == ColStatus::kFreeZero && std::abs(dj) > told) {
        repairable = false;
        break;
      }
    }
    if (!repairable) {
      ++res.stats.dual_fallbacks;
    } else {
      if (!repair.empty()) {
        for (const int j : repair) {
          w.status[static_cast<size_t>(j)] =
              w.status[static_cast<size_t>(j)] == ColStatus::kAtLower
                  ? ColStatus::kAtUpper
                  : ColStatus::kAtLower;
        }
        res.stats.bound_flips += static_cast<long>(repair.size());
        recompute_basics();  // the repair moved nonbasic values
      }
      res.dual_used = true;

      // --- Leaving-row pricing weights. Dual steepest edge wants
      // w_i = ||B^-T e_i||^2. Every dual run starts from unit weights and
      // converges via the periodic exact recompute.
      std::vector<double>& dw = w.dw;
      dw.assign(m_size, 1.0);
      [[maybe_unused]] bool weights_exact = false;  // read by the debug check

      auto exact_weights = [&](std::vector<double>& out) {
        const double t0 = now_seconds();
        out.assign(m_size, 0.0);
        std::vector<double>& e = w.e;
        e.resize(m_size);
        for (int i = 0; i < m_; ++i) {
          std::fill(e.begin(), e.end(), 0.0);
          e[static_cast<size_t>(i)] = 1.0;
          w.lu.btran(e);
          double s2 = 0.0;
          for (const double v : e) s2 += v * v;
          out[static_cast<size_t>(i)] = s2;
        }
        res.stats.dse_seconds += now_seconds() - t0;
      };

      auto clear_alpha = [&] {
        for (const int j : alpha_touched) {
          alpha_mark[static_cast<size_t>(j)] = 0;
          alpha[static_cast<size_t>(j)] = 0.0;
        }
        alpha_touched.clear();
      };

      std::vector<DualCand>& cands = w.cands;
      std::vector<int>& flip_list = w.flip_list;
      std::vector<double>& flip_rhs = w.flip_rhs;
      std::vector<double>& tau = w.tau;
      cands.clear();
      flip_list.clear();
      flip_rhs.assign(m_size, 0.0);
      tau.assign(m_size, 0.0);
      long dual_stalled = 0;
      double dual_last_infeas = kInf;
      long since_recompute = 0;
      bool just_refactored = false;

      while (iter < opts_.max_iters) {
        if ((iter & 127) == 0 &&
            (now_seconds() - t_start > opts_.time_limit_s ||
             (opts_.cancel != nullptr &&
              opts_.cancel->load(std::memory_order_relaxed)))) {
          break;  // the primal loop reports the limit/cancel status
        }
        if (!d_valid || updates_since_refresh >= kPricingRefreshInterval) {
          refresh_d();
        }

        // --- Leaving row: largest squared violation over its weight.
        int r = -1;
        double best_score = 0.0;
        for (int i = 0; i < m_; ++i) {
          const int j = w.basis[static_cast<size_t>(i)];
          const double xj = w.x[static_cast<size_t>(j)];
          double viol = 0.0;
          if (xj > w.ub[static_cast<size_t>(j)] + tolf)
            viol = xj - w.ub[static_cast<size_t>(j)];
          else if (xj < w.lb[static_cast<size_t>(j)] - tolf)
            viol = xj - w.lb[static_cast<size_t>(j)];
          else
            continue;
          const double score =
              viol * viol / std::max(dw[static_cast<size_t>(i)], 1e-10);
          if (score > best_score) {
            best_score = score;
            r = i;
          }
        }
        if (r < 0) break;  // primal feasible: primal loop certifies it

        // Anti-stall: the dual loop has no Bland mode; hand persistent
        // degeneracy to the primal loop instead of cycling here.
        const double infeas_now = total_infeasibility();
        if (infeas_now < dual_last_infeas - 1e-11) {
          dual_stalled = 0;
          dual_last_infeas = infeas_now;
        } else if (++dual_stalled > kBlandTrigger) {
          break;
        }

        const int leave = w.basis[static_cast<size_t>(r)];
        const double x_leave = w.x[static_cast<size_t>(leave)];
        const double sigma =
            x_leave > w.ub[static_cast<size_t>(leave)] ? 1.0 : -1.0;
        const double bound_to = sigma > 0
                                    ? w.ub[static_cast<size_t>(leave)]
                                    : w.lb[static_cast<size_t>(leave)];

        // --- Pivot row: rho = B^-T e_r scattered through the row-major
        // mirror (the same machinery the primal pricing update uses).
        std::fill(rho.begin(), rho.end(), 0.0);
        rho[static_cast<size_t>(r)] = 1.0;
        timed_btran(rho);
        const double t_row = now_seconds();
        for (int i = 0; i < m_; ++i) {
          const double ri = rho[static_cast<size_t>(i)];
          if (std::abs(ri) < kRhoZero) continue;
          for (int q = a_rows_.begin(i); q < a_rows_.end(i); ++q) {
            const int j = a_rows_.col_idx[static_cast<size_t>(q)];
            if (!alpha_mark[static_cast<size_t>(j)]) {
              alpha_mark[static_cast<size_t>(j)] = 1;
              alpha_touched.push_back(j);
            }
            alpha[static_cast<size_t>(j)] +=
                ri * a_rows_.value[static_cast<size_t>(q)];
          }
        }
        res.stats.pricing_seconds += now_seconds() - t_row;

        // --- Dual ratio test over the sigma-normalized row. A candidate
        // whose |alpha| is below the pivot tolerance cannot enter, but its
        // box range still bounds how much violation it could absorb; that
        // mass keeps an exhausted test from overclaiming infeasibility.
        cands.clear();
        double excluded = 0.0;
        for (const int j : alpha_touched) {
          const ColStatus s = w.status[static_cast<size_t>(j)];
          if (s == ColStatus::kBasic) continue;
          const double l = w.lb[static_cast<size_t>(j)];
          const double u = w.ub[static_cast<size_t>(j)];
          if (l == u) continue;  // fixed
          const double at = sigma * alpha[static_cast<size_t>(j)];
          bool elig = false;
          if (s == ColStatus::kAtLower) elig = at > 0.0;
          else if (s == ColStatus::kAtUpper) elig = at < 0.0;
          else elig = at != 0.0;  // free
          if (!elig) continue;
          if (std::abs(at) <= kPivotZero) {
            if (excluded != kInf && l != -kInf && u != kInf)
              excluded += (u - l) * std::abs(at);
            else
              excluded = kInf;
            continue;
          }
          cands.push_back({j,
                           std::max(0.0, d[static_cast<size_t>(j)] / at),
                           std::abs(at)});
        }
        std::sort(cands.begin(), cands.end(),
                  [](const DualCand& a, const DualCand& b) {
                    if (a.ratio != b.ratio) return a.ratio < b.ratio;
                    if (a.step != b.step) return a.step > b.step;
                    return a.j < b.j;
                  });

        // --- Bound-flipping walk: boxed candidates passed while the
        // remaining violation stays positive flip bound-to-bound; the one
        // that would drive it through zero enters the basis.
        double remaining = std::abs(x_leave - bound_to);
        int enter = -1;
        flip_list.clear();
        for (const DualCand& c : cands) {
          const double l = w.lb[static_cast<size_t>(c.j)];
          const double u = w.ub[static_cast<size_t>(c.j)];
          const bool boxed = l != -kInf && u != kInf;
          if (boxed && remaining - (u - l) * c.step > tolf) {
            flip_list.push_back(c.j);
            remaining -= (u - l) * c.step;
          } else {
            enter = c.j;
            break;
          }
        }
        if (enter < 0) {
          clear_alpha();
          // Every eligible column sits at its far bound and row r is still
          // violated: a box-arithmetic infeasibility certificate, unless
          // the excluded tiny pivots could still cover the residual.
          if (remaining > excluded + 10 * tolf)
            return finish(SolveStatus::kInfeasible);
          break;  // ambiguous within tolerance: the primal loop decides
        }

        // --- FTRAN the entering column (also the LU update spike).
        std::fill(spike.begin(), spike.end(), 0.0);
        a_.axpy_col(enter, 1.0, spike);
        timed_ftran(spike);
        const double w_r = spike[static_cast<size_t>(r)];
        if (std::abs(w_r) <= kPivotZero) {
          // Scatter and FTRAN disagree on the pivot magnitude: refactorize
          // once and retry the iteration; bail to primal if it persists.
          clear_alpha();
          if (just_refactored) break;
          if (!timed_factorize()) return finish(SolveStatus::kNumericalError);
          recompute_basics();
          refresh_d();
          just_refactored = true;
          continue;
        }
        just_refactored = false;

        ++iter;
        res.iterations = iter;
        ++res.stats.dual_iterations;

        // --- Apply the bound flips: the basics absorb all the flipped
        // columns' bound-to-bound jumps via one batched FTRAN.
        if (!flip_list.empty()) {
          std::fill(flip_rhs.begin(), flip_rhs.end(), 0.0);
          for (const int j : flip_list) {
            const size_t sj = static_cast<size_t>(j);
            const double range = w.ub[sj] - w.lb[sj];
            const double delta =
                w.status[sj] == ColStatus::kAtLower ? range : -range;
            w.status[sj] = w.status[sj] == ColStatus::kAtLower
                               ? ColStatus::kAtUpper
                               : ColStatus::kAtLower;
            w.x[sj] = nonbasic_value(j);
            a_.axpy_col(j, delta, flip_rhs);
          }
          timed_ftran(flip_rhs);
          for (int i = 0; i < m_; ++i)
            w.x[static_cast<size_t>(w.basis[static_cast<size_t>(i)])] -=
                flip_rhs[static_cast<size_t>(i)];
          res.stats.bound_flips += static_cast<long>(flip_list.size());
        }

        // --- Primal step: drive the leaving basic exactly onto its
        // violated bound (distance recomputed after the flips).
        const double t_step =
            (w.x[static_cast<size_t>(leave)] - bound_to) / w_r;
        for (int i = 0; i < m_; ++i) {
          const double wi = spike[static_cast<size_t>(i)];
          if (wi == 0.0) continue;
          w.x[static_cast<size_t>(w.basis[static_cast<size_t>(i)])] -=
              t_step * wi;
        }
        w.x[static_cast<size_t>(enter)] = nonbasic_value(enter) + t_step;
        w.status[static_cast<size_t>(leave)] =
            sigma > 0 ? ColStatus::kAtUpper : ColStatus::kAtLower;
        w.x[static_cast<size_t>(leave)] = bound_to;
        w.status[static_cast<size_t>(enter)] = ColStatus::kBasic;
        w.basis[static_cast<size_t>(r)] = enter;

        // --- Incremental reduced-cost update along the pivot row. The
        // generic form covers the leaving column too (alpha_leave == 1,
        // overwritten with the exact value below); flipped columns cross
        // to the feasible side of their new bound by construction.
        {
          const double t0 = now_seconds();
          const double theta = d[static_cast<size_t>(enter)] / w_r;
          for (const int j : alpha_touched) {
            if (w.status[static_cast<size_t>(j)] == ColStatus::kBasic)
              continue;
            d[static_cast<size_t>(j)] -= theta * alpha[static_cast<size_t>(j)];
          }
          d[static_cast<size_t>(leave)] = -theta;
          d[static_cast<size_t>(enter)] = 0.0;
          ++updates_since_refresh;
          res.stats.pricing_seconds += now_seconds() - t0;
        }

        // --- Weight update. Steepest edge (Forrest–Goldfarb) needs
        // tau = B^-1 rho against the *outgoing* basis, so this runs before
        // the LU update; beta_r = ||rho||^2 and the pivot come out exact.
        {
          const double t0 = now_seconds();
          const double inv = 1.0 / w_r;
          double beta_r = 0.0;
          for (const double v : rho) beta_r += v * v;
          tau = rho;
          w.lu.ftran(tau);
          for (int i = 0; i < m_; ++i) {
            if (i == r) continue;
            const double wi = spike[static_cast<size_t>(i)];
            if (wi == 0.0) continue;
            const double k = wi * inv;
            double nw = dw[static_cast<size_t>(i)] -
                        2.0 * k * tau[static_cast<size_t>(i)] +
                        k * k * beta_r;
            if (nw < 1e-10) {
              nw = 1e-10;  // cancellation floor: no longer exact
              weights_exact = false;
            }
            dw[static_cast<size_t>(i)] = nw;
          }
          dw[static_cast<size_t>(r)] = std::max(beta_r * inv * inv, 1e-10);
          res.stats.dse_seconds += now_seconds() - t0;
        }

        clear_alpha();

        // --- LU update / periodic refactorization.
        const double t_upd = now_seconds();
        const bool updated = w.lu.num_updates() < kRefactorInterval &&
                             w.lu.update(spike, r);
        res.stats.factor_seconds += now_seconds() - t_upd;
        if (!updated) {
          if (!timed_factorize()) return finish(SolveStatus::kNumericalError);
          recompute_basics();
          refresh_d();
        }

        // --- Periodic exact steepest-edge recompute (numerical hygiene)
        // plus, in debug builds, the drift cross-check of the incremental
        // weights. The check only fires while the weights are provably
        // exact modulo roundoff (last exact recompute, no cancellation
        // floor hit since).
        ++since_recompute;
#ifndef NDEBUG
        if (weights_exact && since_recompute % kDseCheckInterval == 0) {
          std::vector<double> exact;
          exact_weights(exact);
          for (int i = 0; i < m_; ++i) {
            const double e = exact[static_cast<size_t>(i)];
            CGRAF_DCHECK(std::abs(dw[static_cast<size_t>(i)] - e) <=
                         5e-2 * (1.0 + e));
          }
        }
#endif
        if (since_recompute >= kDseRecomputeInterval) {
          exact_weights(dw);
          weights_exact = true;
          since_recompute = 0;
          ++res.stats.steepest_edge_resets;
        }
      }
    }
  }

  for (;; ++iter) {
    if (iter >= opts_.max_iters) return finish(SolveStatus::kIterLimit);
    if ((iter & 127) == 0 && now_seconds() - t_start > opts_.time_limit_s)
      return finish(SolveStatus::kTimeLimit);
    if ((iter & 127) == 0 && opts_.cancel != nullptr &&
        opts_.cancel->load(std::memory_order_relaxed)) {
      return finish(SolveStatus::kCancelled);
    }
    res.iterations = iter;

    // --- Phase detection: any basic outside its bounds forces phase 1.
    bool phase1 = false;
    for (int i = 0; i < m_; ++i) {
      const int j = w.basis[static_cast<size_t>(i)];
      const double xj = w.x[static_cast<size_t>(j)];
      if (xj > w.ub[static_cast<size_t>(j)] + tolf ||
          xj < w.lb[static_cast<size_t>(j)] - tolf) {
        phase1 = true;
        break;
      }
    }
    if (phase1) ++res.stats.phase1_iterations;

    // --- Stall detection drives the Bland anti-cycling fallback. The
    // metric is phase-specific, so reset the tracker on phase changes.
    if (phase1 != last_phase1) {
      stalled = 0;
      last_progress_metric = kInf;
      last_phase1 = phase1;
    }
    const double metric = phase1 ? total_infeasibility() : [&] {
      double o = 0.0;
      for (int j = 0; j < total; ++j)
        o += cost_[static_cast<size_t>(j)] * w.x[static_cast<size_t>(j)];
      return o;
    }();
    if (metric < last_progress_metric - 1e-11) {
      stalled = 0;
      last_progress_metric = metric;
    } else {
      ++stalled;
    }
    const bool bland = stalled > kBlandTrigger;

    // --- Pricing. Phase-1 costs change with the violated set, and Bland
    // mode needs exact first-eligible semantics, so both use the full path;
    // feasible Dantzig iterations use the maintained vector + bucket.
    const bool candidate_mode = !phase1 && !bland;
    int enter = -1;
    double enter_d = 0.0;
    if (!candidate_mode) {
      d_valid = false;
      std::fill(y.begin(), y.end(), 0.0);
      if (phase1) {
        for (int i = 0; i < m_; ++i) {
          const int j = w.basis[static_cast<size_t>(i)];
          const double xj = w.x[static_cast<size_t>(j)];
          if (xj > w.ub[static_cast<size_t>(j)] + tolf)
            y[static_cast<size_t>(i)] = 1.0;  // minimize overshoot
          else if (xj < w.lb[static_cast<size_t>(j)] - tolf)
            y[static_cast<size_t>(i)] = -1.0;
        }
      } else {
        for (int i = 0; i < m_; ++i)
          y[static_cast<size_t>(i)] =
              cost_[static_cast<size_t>(w.basis[static_cast<size_t>(i)])];
      }
      timed_btran(y);

      const double t_price = now_seconds();
      double best_score = told;
      for (int j = 0; j < total; ++j) {
        const ColStatus s = w.status[static_cast<size_t>(j)];
        if (s == ColStatus::kBasic) continue;
        if (w.lb[static_cast<size_t>(j)] == w.ub[static_cast<size_t>(j)])
          continue;  // fixed, can never move
        const double cj = phase1 ? 0.0 : cost_[static_cast<size_t>(j)];
        const double dj = cj - a_.dot_col(j, y);
        bool elig = false;
        if (s == ColStatus::kAtLower) elig = dj < -told;
        else if (s == ColStatus::kAtUpper) elig = dj > told;
        else elig = std::abs(dj) > told;  // free
        if (!elig) continue;
        if (bland) {  // first eligible index
          enter = j;
          enter_d = dj;
          break;
        }
        if (std::abs(dj) > best_score) {
          best_score = std::abs(dj);
          enter = j;
          enter_d = dj;
        }
      }
      res.stats.pricing_seconds += now_seconds() - t_price;

      if (enter < 0) {
        if (phase1) {
          return total_infeasibility() > 10 * tolf
                     ? finish(SolveStatus::kInfeasible)
                     : finish(SolveStatus::kOptimal);
        }
        return finish(SolveStatus::kOptimal);
      }
    } else {
      if (!d_valid || updates_since_refresh >= kPricingRefreshInterval) {
        refresh_d();
      }
      const double t_price = now_seconds();
      enter = pick_from_bucket();
      if (enter < 0) {
        rebuild_bucket();
        enter = pick_from_bucket();
      }
      res.stats.pricing_seconds += now_seconds() - t_price;
      if (enter < 0) {
        // The maintained vector says optimal; confirm with exact reduced
        // costs before declaring it, so drift can never change the answer.
        if (updates_since_refresh > 0) {
          refresh_d();
          const double t2 = now_seconds();
          rebuild_bucket();
          enter = pick_from_bucket();
          res.stats.pricing_seconds += now_seconds() - t2;
        }
        if (enter < 0) return finish(SolveStatus::kOptimal);
      }
      enter_d = d[static_cast<size_t>(enter)];
    }

    const double dir = (w.status[static_cast<size_t>(enter)] ==
                        ColStatus::kAtUpper)
                           ? -1.0
                           : (enter_d < 0.0 ? 1.0 : -1.0);

    // --- FTRAN the entering column.
    std::fill(spike.begin(), spike.end(), 0.0);
    a_.axpy_col(enter, 1.0, spike);
    timed_ftran(spike);

    // --- Ratio test. Basic i changes at rate -dir*spike[i] per unit step.
    double t_limit = w.ub[static_cast<size_t>(enter)] -
                     w.lb[static_cast<size_t>(enter)];  // may be inf
    if (w.status[static_cast<size_t>(enter)] == ColStatus::kFreeZero)
      t_limit = kInf;
    int leave_pos = -1;
    ColStatus leave_to = ColStatus::kAtLower;
    double leave_w = 0.0;
    for (int i = 0; i < m_; ++i) {
      const double wi = spike[static_cast<size_t>(i)];
      if (std::abs(wi) <= kPivotZero) continue;
      const double rate = -dir * wi;
      const int j = w.basis[static_cast<size_t>(i)];
      const double xj = w.x[static_cast<size_t>(j)];
      const double l = w.lb[static_cast<size_t>(j)];
      const double u = w.ub[static_cast<size_t>(j)];
      double limit = kInf;
      ColStatus target = ColStatus::kAtLower;
      if (phase1 && xj > u + tolf) {
        if (rate < 0.0) {  // coming down toward the violated upper bound
          limit = (xj - u) / -rate;
          target = ColStatus::kAtUpper;
        }
      } else if (phase1 && xj < l - tolf) {
        if (rate > 0.0) {
          limit = (l - xj) / rate;
          target = ColStatus::kAtLower;
        }
      } else if (rate < 0.0) {
        if (l != -kInf) {
          limit = (xj - l) / -rate;
          target = ColStatus::kAtLower;
        }
      } else {
        if (u != kInf) {
          limit = (u - xj) / rate;
          target = ColStatus::kAtUpper;
        }
      }
      if (limit == kInf) continue;
      limit = std::max(limit, 0.0);
      if (limit < t_limit - 1e-12 ||
          (limit < t_limit + 1e-12 &&
           (leave_pos < 0 || std::abs(wi) > std::abs(leave_w)))) {
        t_limit = limit;
        leave_pos = i;
        leave_to = target;
        leave_w = wi;
      }
    }

    if (t_limit == kInf) {
      return phase1 ? finish(SolveStatus::kNumericalError)
                    : finish(SolveStatus::kUnbounded);
    }

    // --- Apply the step.
    const double step = t_limit;
    if (step != 0.0) {
      for (int i = 0; i < m_; ++i) {
        const double wi = spike[static_cast<size_t>(i)];
        if (wi == 0.0) continue;
        w.x[static_cast<size_t>(w.basis[static_cast<size_t>(i)])] -=
            dir * wi * step;
      }
      w.x[static_cast<size_t>(enter)] += dir * step;
    }

    if (leave_pos < 0) {
      // Bound flip: the entering variable traversed its whole range. The
      // basis is unchanged, so the maintained reduced costs stay valid.
      w.status[static_cast<size_t>(enter)] =
          dir > 0 ? ColStatus::kAtUpper : ColStatus::kAtLower;
      w.x[static_cast<size_t>(enter)] =
          nonbasic_value(enter);  // snap exactly to the bound
      continue;
    }

    // --- Basis change.
    const int leave = w.basis[static_cast<size_t>(leave_pos)];
    w.status[static_cast<size_t>(leave)] = leave_to;
    w.x[static_cast<size_t>(leave)] =
        leave_to == ColStatus::kAtLower ? w.lb[static_cast<size_t>(leave)]
                                        : w.ub[static_cast<size_t>(leave)];
    w.status[static_cast<size_t>(enter)] = ColStatus::kBasic;
    w.basis[static_cast<size_t>(leave_pos)] = enter;

    // --- Incremental reduced-cost update: with rho = B_old^-T e_r, every
    // d_j drops by (d_enter / w_r) * (rho . a_j). Must run before the LU is
    // touched so the BTRAN still refers to the outgoing basis; the row-major
    // mirror makes the scatter proportional to the pivot row's support, not
    // to nnz(A).
    if (d_valid) {
      const double w_r = spike[static_cast<size_t>(leave_pos)];
      std::fill(rho.begin(), rho.end(), 0.0);
      rho[static_cast<size_t>(leave_pos)] = 1.0;
      timed_btran(rho);
      const double t0 = now_seconds();
      const double theta = d[static_cast<size_t>(enter)] / w_r;
      alpha_touched.clear();
      for (int i = 0; i < m_; ++i) {
        const double ri = rho[static_cast<size_t>(i)];
        if (std::abs(ri) < kRhoZero) continue;
        for (int q = a_rows_.begin(i); q < a_rows_.end(i); ++q) {
          const int j = a_rows_.col_idx[static_cast<size_t>(q)];
          if (!alpha_mark[static_cast<size_t>(j)]) {
            alpha_mark[static_cast<size_t>(j)] = 1;
            alpha_touched.push_back(j);
          }
          alpha[static_cast<size_t>(j)] +=
              ri * a_rows_.value[static_cast<size_t>(q)];
        }
      }
      for (const int j : alpha_touched) {
        alpha_mark[static_cast<size_t>(j)] = 0;
        const double aj = alpha[static_cast<size_t>(j)];
        alpha[static_cast<size_t>(j)] = 0.0;
        if (w.status[static_cast<size_t>(j)] == ColStatus::kBasic) continue;
        d[static_cast<size_t>(j)] -= theta * aj;
      }
      d[static_cast<size_t>(enter)] = 0.0;
      ++updates_since_refresh;
      ++res.stats.incremental_updates;
      res.stats.pricing_seconds += now_seconds() - t0;
    }

    const double t_upd = now_seconds();
    const bool updated = w.lu.num_updates() < kRefactorInterval &&
                         w.lu.update(spike, leave_pos);
    res.stats.factor_seconds += now_seconds() - t_upd;
    if (!updated) {
      if (!timed_factorize()) return finish(SolveStatus::kNumericalError);
      recompute_basics();
      d_valid = false;  // refreshed on the next candidate-mode iteration
    }
  }
}

LpResult solve_lp(const Model& model, const LpOptions& opts) {
  SimplexEngine engine(model, opts);
  return engine.solve();
}

}  // namespace cgraf::milp
