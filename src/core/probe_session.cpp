#include "core/probe_session.h"

#include <utility>

#include "obs/event_log.h"
#include "util/check.h"
#include "util/clock.h"
#include "verify/certify.h"

namespace cgraf::core {

ProbeSession::ProbeSession(RemapModelSpec spec, TwoStepOptions solver,
                           bool warm)
    : spec_(std::move(spec)), solver_(std::move(solver)), warm_(warm) {
  CGRAF_ASSERT(spec_.design != nullptr && spec_.base != nullptr);
  // The session's sink and cancel flag reach the persistent LP engine as
  // well as the nested two-step solves.
  if (solver_.lp.events == nullptr) solver_.lp.events = solver_.events;
  if (solver_.lp.cancel == nullptr) solver_.lp.cancel = solver_.cancel;
}

bool ProbeSession::ensure_model(double target) {
  // A trivially-infeasible model records no rows to patch; the only way to
  // re-probe it at another target is a fresh build. (Only the frozen-stress
  // early-out depends on the target, but rebuilding on every reason is
  // exactly what a cold session does, so verdicts stay identical.) A cold
  // session rebuilds before every probe.
  if (!built_ || !warm_ ||
      (rm_.trivially_infeasible && target != rm_.st_target)) {
    spec_.st_target = target;
    rm_ = build_remap_model(spec_);
    built_ = true;
    ++stats_.model_rebuilds;
    engine_.reset();
    basis_.clear();
    return !rm_.trivially_infeasible;
  }
  if (rm_.trivially_infeasible) return false;
  if (target != rm_.st_target) {
    // patch_st_target leaves the model at its previous target when the new
    // one is infeasible outright, so later probes can still patch from it.
    if (!rm_.patch_st_target(target)) return false;
    ++stats_.patches;
    if (engine_ != nullptr) {
      for (const int row : rm_.stress_rows) {
        if (row < 0) continue;
        const milp::Constraint& c = rm_.model.constraint(row);
        engine_->set_row_bounds(row, c.lb, c.ub);
      }
    }
  }
  return true;
}

TwoStepResult ProbeSession::lp_probe() {
  TwoStepResult res;
  res.stats.vars_total = rm_.num_binary_vars;
  if (engine_ == nullptr) {
    milp::Model relaxed = rm_.model;
    for (int v = 0; v < relaxed.num_vars(); ++v) relaxed.relax_var(v);
    engine_ = std::make_unique<milp::SimplexEngine>(relaxed, solver_.lp);
  }

  const bool have_warm = !basis_.empty();
  milp::LpResult lp = engine_->solve(have_warm ? &basis_ : nullptr);
  if (have_warm && !lp.warm_used) {
    // Stale/singular basis: the engine already restarted from the slack
    // basis on its own.
    ++stats_.basis_fallbacks;
  } else if (have_warm && lp.status == milp::SolveStatus::kNumericalError) {
    // The chained basis factored but drove the solve into numerical
    // trouble; a cold re-solve is the answer a fresh session would give.
    ++stats_.basis_fallbacks;
    lp = engine_->solve(nullptr);
  } else if (have_warm) {
    ++stats_.warm_hits;
  }
  res.stats.warm_start_used = have_warm && lp.warm_used;
  if (!lp.basis.empty()) basis_ = lp.basis;

  res.stats.lp_status = lp.status;
  res.stats.lp_iterations = lp.iterations;
  res.stats.lp_seconds = lp.seconds;
  res.stats.lp_stage.add(lp.stats);
  res.basis = lp.basis;
  if (lp.status != milp::SolveStatus::kOptimal) {
    res.status = lp.status == milp::SolveStatus::kUnbounded
                     ? milp::SolveStatus::kNumericalError
                     : lp.status;
    return res;
  }
  // With solver_.verify on, the LP point is independently certified
  // (integrality waived). The remapper's presearch opens its session with
  // RemapOptions::solver as given, whose verify is off by default, so its
  // verdicts are uncertified; the attempts that follow certify what they
  // accept.
  res.status = milp::SolveStatus::kOptimal;
  if (solver_.verify.enabled) {
    const verify::Certificate cert =
        verify::certify_solution(rm_.model, lp.x, {}, /*relaxed=*/true);
    res.certified = cert.ok;
    if (!cert.ok) {
      res.certify_error = cert.summary();
      res.status = milp::SolveStatus::kNumericalError;
    }
  }
  return res;
}

TwoStepResult ProbeSession::two_step_probe() {
  TwoStepOptions probe_opts = solver_;
  const bool have_warm = !basis_.empty();
  probe_opts.warm_basis = have_warm ? &basis_ : nullptr;
  TwoStepResult res = solve_two_step(rm_, probe_opts);
  if (have_warm) {
    if (res.stats.warm_start_used) ++stats_.warm_hits;
    else ++stats_.basis_fallbacks;
  }
  if (!res.basis.empty()) basis_ = res.basis;
  return res;
}

TwoStepResult ProbeSession::solve_lp(double st_target) {
  return probe(st_target, /*lp=*/true);
}

TwoStepResult ProbeSession::solve(double st_target) {
  return probe(st_target, /*lp=*/false);
}

TwoStepResult ProbeSession::probe(double st_target, bool lp) {
  ++stats_.probes;
  // Snapshot for the probe.solve record: the deltas below ARE the session's
  // accounting, so the analyzer's warm-hit/fallback totals summed over
  // probe.solve events match ProbeSessionStats exactly.
  const ProbeSessionStats before = stats_;
  const double t0 = now_seconds();
  const char* mode = lp ? "lp" : "two_step";
  TwoStepResult res;
  if (ensure_model(st_target)) {
    res = lp ? lp_probe() : two_step_probe();
  } else {
    mode = "trivial_infeasible";
    res.status = milp::SolveStatus::kInfeasible;
  }

  obs::Event ev(solver_.events, "probe.solve");
  if (ev.active()) {
    ev.arg("target", st_target)
        .arg("mode", mode)
        .arg("status", milp::to_string(res.status))
        .arg("warm_hit", stats_.warm_hits > before.warm_hits)
        .arg("fallback", stats_.basis_fallbacks > before.basis_fallbacks)
        .arg("rebuild", stats_.model_rebuilds > before.model_rebuilds)
        .arg("patch", stats_.patches > before.patches)
        .arg("lp_iterations",
             res.stats.lp_iterations + res.stats.mip_lp_iterations)
        .arg("seconds", now_seconds() - t0)
        // A rejection inside solve_two_step is on that call's twostep.solve
        // record already; counting it here too would count it twice.
        .arg("certify_rejected", lp && !res.certify_error.empty());
  }
  return res;
}

}  // namespace cgraf::core
