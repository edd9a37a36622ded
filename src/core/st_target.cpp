#include "core/st_target.h"

#include <algorithm>

#include "cgrra/stress.h"
#include "core/probe_session.h"
#include "obs/event_log.h"
#include "util/check.h"
#include "util/clock.h"
#include "verify/input_lint.h"

namespace cgraf::core {
namespace {

// Step 1's stopping rule: at most kProbes bisection probes, or a bracket
// narrower than kTolFrac * (ST_up - ST_low).
constexpr int kProbes = 16;
constexpr double kTolFrac = 0.02;

}  // namespace

double bisect_st_target(double lo, double hi, int max_probes, double tol,
                        const std::function<bool(double)>& feasible) {
  for (int i = 0; i < max_probes && hi - lo > tol; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (feasible(mid)) hi = mid;
    else lo = mid;
  }
  return hi;
}

StTargetResult find_st_target(const Design& design, const Floorplan& baseline,
                              const StTargetOptions& opts) {
  const double t_start = now_seconds();
  obs::EventLog* const events = opts.solver.events;
  StTargetResult res;
  // Input boundary: compute_stress and the model build below index the
  // design freely, so garbage must be turned away first (DL rule errors).
  if (!verify::lint_inputs(design, &baseline).clean()) {
    res.ok = false;
    obs::Event(events, "st.search_end")
        .arg("st_target", 0.0)
        .arg("probes", 0L)
        .arg("rejected_by_input_lint", true);
    return res;
  }
  const StressMap stress = compute_stress(design, baseline);
  res.st_up = stress.max_accumulated();
  res.st_low = stress.avg_accumulated();
  obs::Event(events, "st.search_begin")
      .arg("st_low", res.st_low)
      .arg("st_up", res.st_up);
  if (res.st_up <= 0.0) {
    res.ok = true;  // no stress at all; nothing to balance
    res.st_target = 0.0;
    obs::Event(events, "st.search_end")
        .arg("st_target", res.st_target)
        .arg("probes", static_cast<long>(res.probes))
        .arg("warm_hits", 0L)
        .arg("basis_fallbacks", 0L)
        .arg("lp_iterations", res.lp_iterations);
    return res;
  }

  // Step 1 is delay-unaware: every op is free and every PE is a candidate.
  const int n_ops = design.num_ops();
  std::vector<char> frozen(static_cast<std::size_t>(n_ops), 0);
  std::vector<std::vector<int>> candidates(static_cast<std::size_t>(n_ops));
  for (auto& c : candidates) {
    c.resize(static_cast<std::size_t>(design.fabric.num_pes()));
    for (int pe = 0; pe < design.fabric.num_pes(); ++pe)
      c[static_cast<std::size_t>(pe)] = pe;
  }

  // All probes share one spec (only st_target differs), so the session
  // builds the model once and patches the stress rows between probes.
  RemapModelSpec spec;
  spec.design = &design;
  spec.base = &baseline;
  spec.frozen = std::move(frozen);
  spec.candidates = std::move(candidates);
  spec.monitored = nullptr;  // no CP / path-delay constraints in Step 1
  // LP-only probes are pure feasibility: the null objective lets the
  // simplex stop as soon as phase 1 closes.
  spec.objective = opts.confirm_with_ilp ? ObjectiveMode::kMinPerturbation
                                         : ObjectiveMode::kNull;
  TwoStepOptions solver = opts.solver;
  solver.lp_only = !opts.confirm_with_ilp;
  ProbeSession session(std::move(spec), solver, opts.warm_probes);

  auto feasible = [&](double target) {
    const double t_probe = now_seconds();
    const TwoStepResult r = session.solve(target);
    ++res.probes;
    res.lp_iterations += r.stats.lp_iterations;
    res.lp_stage.add(r.stats.lp_stage);
    bool ok = r.status == milp::SolveStatus::kOptimal;
    // ILP-confirmed probes also get the cgrra-level certificate: the stress
    // bound must hold on the decoded floorplan itself, not just the model.
    if (ok && opts.confirm_with_ilp && solver.verify.enabled) {
      verify::FloorplanSpec fspec;
      fspec.design = &design;
      fspec.st_target = target;
      const verify::Certificate cert =
          verify::certify_floorplan(fspec, r.floorplan);
      if (!cert.ok) {
        ++res.certify_failures;
        ok = false;
      }
    }
    const double probe_seconds = now_seconds() - t_probe;
    obs::Event(events, "st.probe")
        .arg("target", target)
        .arg("feasible", ok)
        .arg("seconds", probe_seconds);
    res.probe_log.push_back({target, ok, probe_seconds});
    return ok;
  };

  // The average is usually infeasible (perfect balance is rarely integral);
  // probe it once so a feasible ST_low short-circuits the search. The
  // baseline itself proves ST_up feasible.
  res.ok = true;
  res.st_target =
      feasible(res.st_low)
          ? res.st_low
          : bisect_st_target(
                res.st_low, res.st_up, kProbes,
                std::max(1e-9, kTolFrac * (res.st_up - res.st_low)), feasible);

  const ProbeSessionStats& ps = session.stats();
  res.warm_hits = ps.warm_hits;
  res.basis_fallbacks = ps.basis_fallbacks;
  res.model_rebuilds = ps.model_rebuilds;
  obs::Event ev(events, "st.search_end");
  if (ev.active()) {
    ev.arg("st_target", res.st_target)
        .arg("probes", static_cast<long>(res.probes))
        .arg("warm_hits", static_cast<long>(ps.warm_hits))
        .arg("basis_fallbacks", static_cast<long>(ps.basis_fallbacks))
        .arg("lp_iterations", res.lp_iterations)
        .arg("certify_failures", static_cast<long>(res.certify_failures))
        .arg("seconds", now_seconds() - t_start);
  }
  return res;
}

}  // namespace cgraf::core
