#include "core/two_step.h"

#include <algorithm>
#include <cstdint>

#include "core/strategy.h"
#include "milp/simplex.h"
#include "obs/event_log.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/rng.h"
#include "verify/certify.h"

namespace cgraf::core {
namespace {

// The paper's pre-mapping threshold (the dive's and the one-shot fix's).
constexpr double kRoundThreshold = 0.95;
// kIterativeDive: when a fixing decision breaks LP feasibility, undo the
// offending round and ban the forced variable, up to this many bans before
// giving up on the current st_target.
constexpr int kDiveBanBudget = 120;
// Randomized rounding's stream: every run draws the same samples.
constexpr std::uint64_t kRandomizedRoundSeed = 1;

// Independent acceptance gate: re-validate the integral solution vector
// against the *original* model (not the bound-tightened copy the solver ran
// on). A failed certification rejects the result instead of shipping an
// illegal floorplan.
void certify_accept(const RemapModel& rm, const std::vector<double>& x,
                    const TwoStepOptions& opts, TwoStepResult& res) {
  if (!opts.verify.enabled) return;
  const verify::Certificate cert = verify::certify_solution(rm.model, x);
  res.certified = cert.ok;
  if (cert.ok) return;
  res.certify_error = cert.summary();
  res.status = milp::SolveStatus::kNumericalError;
  res.floorplan = Floorplan{};
}

// Randomized rounding (ablation): per op, sample a candidate with
// probability proportional to its LP value and fix it.
int randomized_fix(const RemapModel& rm, const std::vector<double>& lp_x,
                   milp::Model& model, Rng& rng) {
  int fixed = 0;
  for (int op = 0; op < rm.design->num_ops(); ++op) {
    const auto& vars = rm.assign_vars[static_cast<std::size_t>(op)];
    if (vars.empty()) continue;
    double total = 0.0;
    for (const int v : vars)
      total += std::max(0.0, lp_x[static_cast<std::size_t>(v)]);
    if (total <= 1e-12) continue;
    double pick = rng.next_double() * total;
    int chosen = vars.back();
    for (const int v : vars) {
      pick -= std::max(0.0, lp_x[static_cast<std::size_t>(v)]);
      if (pick <= 0.0) {
        chosen = v;
        break;
      }
    }
    model.set_bounds(chosen, 1.0, 1.0);
    ++fixed;
  }
  return fixed;
}

// A failed relaxation's status as the solve's verdict. The remap LP is
// bounded, so "unbounded" can only be a numerical failure.
milp::SolveStatus lp_failure_status(milp::SolveStatus s) {
  return s == milp::SolveStatus::kUnbounded ? milp::SolveStatus::kNumericalError
                                            : s;
}

// Runs branch & bound on `model` and folds its result into `res`.
void run_bnb(const milp::Model& model, const RemapModel& rm,
             const TwoStepOptions& opts, TwoStepResult& res) {
  const milp::MipResult mip = milp::solve_milp(model, opts.mip);
  res.stats.mip_status = mip.status;
  res.stats.mip_nodes += mip.nodes;
  res.stats.mip_lp_iterations += mip.lp_iterations;
  res.stats.mip_seconds += mip.seconds;
  res.stats.mip_threads = mip.threads_used;
  res.stats.mip_nodes_per_thread = mip.nodes_per_thread;
  res.stats.lp_stage.add(mip.lp_stats);
  if (mip.has_solution()) {
    res.status = milp::SolveStatus::kOptimal;
    res.floorplan = rm.decode(mip.x);
    certify_accept(rm, mip.x, opts, res);
  } else {
    res.status = mip.status;
  }
}

// The default strategy: iterated LP dive with warm-started re-solves and
// ban-and-backtrack repair. Leaves a floorplan, a proof of infeasibility at
// the root, or the limit it gave up on in `res`.
void iterative_dive(const RemapModel& rm, const TwoStepOptions& opts,
                    TwoStepResult& res) {
  milp::Model relaxed = rm.model;
  for (int v = 0; v < relaxed.num_vars(); ++v) relaxed.relax_var(v);
  milp::SimplexEngine engine(relaxed, opts.lp);

  std::vector<double> lb = engine.model_lb();
  std::vector<double> ub = engine.model_ub();
  std::vector<char> op_fixed(static_cast<std::size_t>(rm.design->num_ops()),
                             0);
  int remaining = 0;
  for (int op = 0; op < rm.design->num_ops(); ++op) {
    if (rm.assign_vars[static_cast<std::size_t>(op)].empty())
      op_fixed[static_cast<std::size_t>(op)] = 1;  // frozen
    else
      ++remaining;
  }

  // Commit history for backtracking: one entry per round that fixed vars.
  struct Round {
    std::vector<std::pair<int, int>> fixes;  // (var, op)
    bool forced_single = false;
  };
  std::vector<Round> history;
  int bans = 0;
  double threshold = kRoundThreshold;

  milp::LpResult lp;
  // Warm-start every re-solve from the last feasible basis; phase 1
  // re-establishes feasibility in a handful of iterations after a fix or
  // an unfix, where a cold start would pay thousands. The root LP itself
  // can be seeded from a previous probe of an incremental session.
  std::vector<milp::ColStatus> good_basis;
  if (opts.warm_basis != nullptr && !opts.warm_basis->empty())
    good_basis = *opts.warm_basis;
  const int max_rounds = 24 * rm.design->num_ops() + 256;  // hard backstop
  while (true) {
    if (res.stats.dive_rounds >= max_rounds) {
      res.status = milp::SolveStatus::kIterLimit;
      return;
    }
    if (opts.cancel != nullptr &&
        opts.cancel->load(std::memory_order_relaxed)) {
      res.status = milp::SolveStatus::kCancelled;
      return;
    }
    lp = engine.solve(lb, ub, good_basis.empty() ? nullptr : &good_basis);
    if (res.stats.dive_rounds == 0)
      res.stats.warm_start_used = opts.warm_basis != nullptr && lp.warm_used;
    ++res.stats.dive_rounds;
    res.stats.lp_iterations += lp.iterations;
    res.stats.lp_seconds += lp.seconds;
    res.stats.lp_status = lp.status;
    res.stats.lp_stage.add(lp.stats);
    res.basis = lp.basis;

    if (lp.status != milp::SolveStatus::kOptimal) {
      if (history.empty()) {
        // The root LP's own verdict (a proof, or the limit it stopped on),
        // unless bans over-constrained it, which proves nothing.
        res.status = bans > 0 && lp.status == milp::SolveStatus::kInfeasible
                         ? milp::SolveStatus::kNodeLimit
                         : lp_failure_status(lp.status);
        return;
      }
      // Undo the most recent round; ban its variable when it was a forced
      // single commit, tighten the threshold when a batch misfired.
      Round bad = std::move(history.back());
      history.pop_back();
      for (const auto& [var, op] : bad.fixes) {
        lb[static_cast<std::size_t>(var)] = 0.0;
        ub[static_cast<std::size_t>(var)] = 1.0;
        op_fixed[static_cast<std::size_t>(op)] = 0;
        ++remaining;
        --res.stats.vars_fixed;
      }
      if (bad.forced_single || threshold >= 0.999) {
        // Ban the round's first commit. Batches also consume bans once the
        // threshold has saturated — otherwise the same batch would be
        // re-fixed identically forever.
        ub[static_cast<std::size_t>(bad.fixes.front().first)] = 0.0;
        ++bans;
      } else {
        threshold = std::min(0.999, 0.5 * (1.0 + threshold));
      }
      if (bans > kDiveBanBudget) {
        res.status = milp::SolveStatus::kNodeLimit;  // give up, unproven
        return;
      }
      continue;
    }
    if (remaining == 0) break;
    good_basis = lp.basis;

    // Fix every op whose best candidate clears the threshold; if none do,
    // commit the single most-integral op to keep the dive moving.
    Round round;
    int best_op = -1, best_var = -1;
    double best_val = -1.0;
    for (int op = 0; op < rm.design->num_ops(); ++op) {
      if (op_fixed[static_cast<std::size_t>(op)]) continue;
      const auto& vars = rm.assign_vars[static_cast<std::size_t>(op)];
      int arg = -1;
      double val = -1.0;
      for (const int v : vars) {
        if (ub[static_cast<std::size_t>(v)] == 0.0) continue;  // banned
        if (lp.x[static_cast<std::size_t>(v)] > val) {
          val = lp.x[static_cast<std::size_t>(v)];
          arg = v;
        }
      }
      if (arg < 0) continue;  // fully banned op: the LP will flag it
      if (val > threshold) {
        lb[static_cast<std::size_t>(arg)] = 1.0;
        ub[static_cast<std::size_t>(arg)] = 1.0;
        op_fixed[static_cast<std::size_t>(op)] = 1;
        --remaining;
        round.fixes.emplace_back(arg, op);
        ++res.stats.vars_fixed;
      } else if (val > best_val) {
        best_val = val;
        best_op = op;
        best_var = arg;
      }
    }
    if (round.fixes.empty()) {
      if (best_op < 0) break;  // nothing left to decide
      lb[static_cast<std::size_t>(best_var)] = 1.0;
      ub[static_cast<std::size_t>(best_var)] = 1.0;
      op_fixed[static_cast<std::size_t>(best_op)] = 1;
      --remaining;
      round.fixes.emplace_back(best_var, best_op);
      round.forced_single = true;
      ++res.stats.vars_fixed;
    }
    history.push_back(std::move(round));
  }

  // Fully committed and the final LP is feasible: decode the floorplan.
  // Every assignment variable ends the dive fixed to 0 or 1, so the vector
  // is certified at full (integral) strictness.
  res.status = milp::SolveStatus::kOptimal;
  res.floorplan = rm.decode(lp.x);
  certify_accept(rm, lp.x, opts, res);
}

}  // namespace

TwoStepResult solve_two_step(const RemapModel& rm,
                             const TwoStepOptions& opts_in) {
  // Local copy so the event-log sink and the cancel flag reach every nested
  // solve; branch & bound passes both on to its node LPs itself.
  TwoStepOptions opts = opts_in;
  if (opts.lp.events == nullptr) opts.lp.events = opts.events;
  if (opts.mip.events == nullptr) opts.mip.events = opts.events;
  if (opts.lp.cancel == nullptr) opts.lp.cancel = opts.cancel;
  if (opts.mip.cancel == nullptr) opts.mip.cancel = opts.cancel;

  const double t_start = now_seconds();
  TwoStepResult res;
  res.stats.vars_total = rm.num_binary_vars;
  const auto finish = [&] {
    obs::Event ev(opts.events, "twostep.solve");
    if (ev.active()) {
      ev.arg("strategy", to_string(opts.strategy))
          .arg("status", milp::to_string(res.status))
          .arg("lp_iterations", res.stats.lp_iterations)
          .arg("mip_lp_iterations", res.stats.mip_lp_iterations)
          .arg("nodes", res.stats.mip_nodes)
          .arg("dive_rounds", res.stats.dive_rounds)
          .arg("vars_fixed", res.stats.vars_fixed)
          .arg("warm_start_used", res.stats.warm_start_used)
          .arg("fallback_unfixed", res.stats.fallback_unfixed)
          .arg("certify_rejected", !res.certify_error.empty())
          .arg("seconds", now_seconds() - t_start);
    }
  };
  if (rm.trivially_infeasible) {
    res.status = milp::SolveStatus::kInfeasible;
    finish();
    return res;
  }

  // --- Pure one-shot ILP (scaling baseline).
  if (opts.strategy == RoundingStrategy::kNone) {
    run_bnb(rm.model, rm, opts, res);
    finish();
    return res;
  }

  // --- Default: iterated LP dive.
  if (opts.strategy == RoundingStrategy::kIterativeDive) {
    iterative_dive(rm, opts, res);
    finish();
    return res;
  }

  // --- Step A: LP relaxation (one-shot fixing, randomized).
  milp::LpResult lp;
  {
    milp::Model relaxed = rm.model;
    for (int v = 0; v < relaxed.num_vars(); ++v) relaxed.relax_var(v);
    milp::SimplexEngine engine(relaxed, opts.lp);
    const bool have_warm =
        opts.warm_basis != nullptr && !opts.warm_basis->empty();
    lp = engine.solve(have_warm ? opts.warm_basis : nullptr);
    res.stats.warm_start_used = have_warm && lp.warm_used;
  }
  res.stats.lp_status = lp.status;
  res.stats.lp_iterations = lp.iterations;
  res.stats.lp_seconds = lp.seconds;
  res.stats.lp_stage.add(lp.stats);
  res.basis = lp.basis;
  if (lp.status != milp::SolveStatus::kOptimal) {
    res.status = lp_failure_status(lp.status);
    finish();
    return res;
  }

  // --- Step B: pre-map (fix) variables once.
  milp::Model fixed_model = rm.model;
  int fixed = 0;
  if (opts.strategy == RoundingStrategy::kThresholdFixOnce) {
    for (int v = 0; v < rm.num_binary_vars; ++v) {
      if (lp.x[static_cast<std::size_t>(v)] > kRoundThreshold) {
        fixed_model.set_bounds(v, 1.0, 1.0);
        ++fixed;
      }
    }
  } else {  // kRandomizedRound
    Rng rng(kRandomizedRoundSeed);
    fixed = randomized_fix(rm, lp.x, fixed_model, rng);
  }
  res.stats.vars_fixed = fixed;

  // --- Step C: residual ILP, with an unfixed fallback if over-committed.
  run_bnb(fixed_model, rm, opts, res);
  if (res.status == milp::SolveStatus::kInfeasible && fixed > 0) {
    res.stats.fallback_unfixed = true;
    run_bnb(rm.model, rm, opts, res);
  }
  finish();
  return res;
}

}  // namespace cgraf::core
