#include "core/remapper.h"

#include <algorithm>

#include "cgrra/stress.h"
#include "core/probe_session.h"
#include "obs/event_log.h"
#include "util/ascii.h"
#include "util/check.h"
#include "util/clock.h"
#include "verify/input_lint.h"

namespace cgraf::core {
namespace {

// Algorithm 1's fixed search parameters: a 6-probe LP presearch picks the
// Delta loop's start, Delta is 5% of ST_up - ST_low, the upward scan makes
// at most 40 attempts per geometry, and up to 3 bisection attempts refine
// the result.
constexpr double kDeltaFrac = 0.05;
constexpr int kPresearchProbes = 6;
constexpr int kMaxAttempts = 40;
constexpr int kRefineProbes = 3;

}  // namespace

PathSets derive_path_sets(const timing::CombGraph& graph,
                          const Floorplan& baseline, const RemapOptions& opts) {
  const Design& design = *graph.design;
  PathSets sets;
  sets.frozen.assign(static_cast<std::size_t>(design.num_ops()), 0);
  sets.frozen_by_context.resize(static_cast<std::size_t>(design.num_contexts));
  for (int c = 0; c < design.num_contexts; ++c) {
    for (const timing::TimingPath& p : timing::critical_paths(
             graph, baseline, c, opts.max_critical_paths_per_context)) {
      for (const int op : p.ops) {
        if (sets.frozen[static_cast<std::size_t>(op)]) continue;
        sets.frozen[static_cast<std::size_t>(op)] = 1;
        sets.frozen_by_context[static_cast<std::size_t>(c)].push_back(op);
      }
    }
  }
  // The paper monitors paths whose *initial* delay is within the margin of
  // the CPD.
  timing::PathQuery query;
  query.margin = opts.path_margin;
  query.max_paths = opts.max_monitored_paths;
  sets.monitored = timing::monitored_paths(graph, baseline, query);
  return sets;
}

RemapResult aging_aware_remap(const Design& design, const Floorplan& baseline,
                              const RemapOptions& opts) {
  const double t_start = now_seconds();
  obs::EventLog* const events = opts.solver.events;
  obs::Event(events, "remap.begin")
      .arg("ops", design.num_ops())
      .arg("contexts", design.num_contexts)
      .arg("pes", design.fabric.num_pes());
  RemapResult res;

  // Input boundary: reject garbage with a DL rule ID before any model is
  // built. The is_valid assert below stays as a backstop — the DL error
  // rules are a superset of its checks, so it can only fire on inputs the
  // lint already waved through (i.e. a lint bug).
  {
    const verify::LintReport input_rep =
        verify::lint_inputs(design, &baseline);
    if (!input_rep.clean()) {
      res.floorplan = baseline;
      for (const verify::LintFinding& f : input_rep.findings) {
        if (f.severity == verify::Severity::kError) {
          res.note = "rejected by input lint: " + f.rule + ": " + f.message;
          break;
        }
      }
      obs::Event(events, "remap.end").arg("improved", false).arg(
          "note", res.note);
      return res;
    }
  }
  std::string why;
  CGRAF_ASSERT(is_valid(design, baseline, &why));

  const timing::CombGraph graph(design);
  const timing::StaResult sta0 = run_sta(graph, baseline);
  res.cpd_before_ns = sta0.cpd_ns;

  const StressMap stress0 = compute_stress(design, baseline);
  res.st_max_before = stress0.max_accumulated();
  res.st_avg = stress0.avg_accumulated();
  res.mttf_before = aging::compute_mttf(design, baseline, opts.nbti,
                                        opts.thermal);
  res.floorplan = baseline;

  // --- Steps 2.1a and 2.2: the frozen critical-path ops and the monitored
  // paths.
  const PathSets paths = derive_path_sets(graph, baseline, opts);
  const std::vector<char>& frozen = paths.frozen;
  const std::vector<timing::TimingPath>& monitored = paths.monitored;
  for (const char f : frozen) res.num_frozen_ops += f;
  res.num_monitored_paths = static_cast<int>(monitored.size());

  // Baseline returns still deserve a certificate: the unchanged floorplan
  // is checked against its own stress level and the monitored-path budgets.
  auto certify_baseline = [&] {
    if (!opts.verify.enabled) return;
    verify::FloorplanSpec fspec;
    fspec.design = &design;
    fspec.reference = &baseline;
    fspec.frozen = frozen;
    fspec.st_target = res.st_max_before;
    fspec.monitored = &monitored;
    fspec.cpd_ns = res.cpd_before_ns;
    res.certified = verify::certify_floorplan(fspec, baseline).ok;
  };

  auto emit_end = [&] {
    res.seconds = now_seconds() - t_start;
    obs::Event ev(events, "remap.end");
    if (ev.active()) {
      ev.arg("improved", res.improved)
          .arg("st_target_final", res.st_target_final)
          .arg("attempts", res.outer_iterations)
          .arg("mttf_gain", res.mttf_gain)
          .arg("certify_rejections", res.certify_rejections)
          .arg("seconds", res.seconds);
    }
  };
  // The one way to hand back the baseline: unchanged, certified against its
  // own stress level, with st_target_final left at the last attempt.
  auto keep_baseline = [&](const char* note) {
    certify_baseline();
    res.cpd_after_ns = res.cpd_before_ns;
    res.st_max_after = res.st_max_before;
    res.mttf_after = res.mttf_before;
    res.mttf_gain = 1.0;
    res.note = note;
    emit_end();
  };

  // --- Step 1: delay-unaware stress-target lower bound.
  StTargetOptions st_opts = opts.st_search;
  // Route the remap-level event sink into Step 1 unless one was set there
  // explicitly.
  if (st_opts.solver.events == nullptr) st_opts.solver.events = events;
  const StTargetResult st = find_st_target(design, baseline, st_opts);
  const double delta = std::max(
      1e-9, kDeltaFrac * std::max(1e-12, st.st_up - st.st_low));

  // --- Step 2.1b: Rotate re-orients each context's frozen group once.
  Floorplan base = baseline;
  if (opts.mode == RemapMode::kRotate) {
    RotationOptions ropts;
    ropts.restarts = opts.rotation_restarts;
    ropts.seed = opts.seed + 0x100;
    const RotationResult rot = rotate_critical_paths(
        design, baseline, paths.frozen_by_context, ropts);
    CGRAF_ASSERT(rot.ok);
    base = rot.rotated_base;
  }

  // Candidates depend on positions and slack only, not on st_target.
  std::vector<std::vector<int>> candidates =
      compute_candidates(design, base, frozen, monitored,
                         res.cpd_before_ns, opts.candidates);

  // Smallest LP-feasible target (with path constraints) for a given frozen
  // geometry: the start of the Delta loop, which alone would need
  // O(1/kDeltaFrac) integer attempts to get there. One probe session per
  // geometry — its probes differ only in the stress rows' RHS.
  auto presearch = [&](const Floorplan& b,
                       const std::vector<std::vector<int>>& cand) {
    RemapModelSpec spec;
    spec.design = &design;
    spec.base = &b;
    spec.frozen = frozen;
    spec.candidates = cand;
    spec.monitored = &monitored;
    spec.cpd_ns = res.cpd_before_ns;
    spec.objective = ObjectiveMode::kNull;  // feasibility only
    ProbeSession session(std::move(spec), opts.solver, opts.warm_probes);
    auto lp_feasible = [&](double target) {
      return session.solve_lp(target).status == milp::SolveStatus::kOptimal;
    };
    const double lo = std::max(st.st_target, 1e-12);
    return lp_feasible(lo) ? lo
                           : bisect_st_target(lo, res.st_max_before,
                                              kPresearchProbes, 0.0,
                                              lp_feasible);
  };
  double st_target = presearch(base, candidates);
  if (opts.mode == RemapMode::kRotate) {
    // The overlap score is only a proxy: on small fabrics with many
    // contexts a rotation that spreads the frozen groups can *hurt* the
    // reachable balance. Compare against the un-rotated geometry by the
    // quantity that matters and keep the better plan (a tie keeps the
    // rotation).
    std::vector<std::vector<int>> id_cand =
        compute_candidates(design, baseline, frozen, monitored,
                           res.cpd_before_ns, opts.candidates);
    const double id_target = presearch(baseline, id_cand);
    if (id_target < st_target - 1e-12) {
      base = baseline;
      candidates = id_cand;
      st_target = id_target;
    }
  }

  // --- Step 2.3: Delta-relaxation loop on the chosen geometry.
  TwoStepOptions solver_opts = opts.solver;
  // The strategy table drives the rounding mode of the exact side
  // (--strategy beats any ad-hoc solver.strategy setting).
  const StrategyInfo& sinfo = strategy_info(opts.strategy);
  solver_opts.strategy = sinfo.rounding;
  // One switch turns on both certification layers: the milp-level
  // solution check inside solve_two_step and the cgrra-level floorplan
  // check below.
  if (opts.verify.enabled) solver_opts.verify = opts.verify;
  // The Delta loop's attempts share one geometry (base/candidates are
  // final once the presearch picked them), so one session carries the
  // model and the chained basis across the whole scan + refinement.
  RemapModelSpec attempt_spec;
  attempt_spec.design = &design;
  attempt_spec.base = &base;
  attempt_spec.frozen = frozen;
  attempt_spec.candidates = candidates;
  attempt_spec.monitored = &monitored;
  attempt_spec.cpd_ns = res.cpd_before_ns;
  attempt_spec.objective = opts.objective;
  // The local search needs the same spec (st_target patched per attempt)
  // after attempt_spec is moved into the session.
  RemapModelSpec heur_spec = attempt_spec;
  ProbeSession attempt_session(std::move(attempt_spec), solver_opts,
                               opts.warm_probes);

  // Attempts one st_target: solve, validate, and re-check the CPD with a
  // full STA (Algorithm 1 lines 10-17). Returns true and fills
  // `out`/`out_cpd` on success.
  auto attempt = [&](double target, Floorplan& out, double& out_cpd) {
    ++res.outer_iterations;
    res.st_target_final = target;
    const double t_iter = now_seconds();

    // Strategy dispatch from the table row: the local search runs first
    // when the row has it, the exact solve only when the row has it and
    // no certified LS floorplan came back (the portfolio runs both, in
    // that order). Both fill the same verdict slots so the STA re-check
    // and reporting below stay strategy-agnostic.
    bool solved_ok = false;
    Floorplan solved_fp;
    std::string status_str;
    int vars = 0;
    // The per-attempt LS stream: reproducible, distinct per Delta-loop
    // iteration.
    LocalSearchOptions ls_opts = opts.ls;
    ls_opts.seed = opts.ls.seed ^
                   (0x9e3779b97f4a7c15ULL *
                    static_cast<std::uint64_t>(res.outer_iterations));
    if (ls_opts.events == nullptr) ls_opts.events = events;

    if (sinfo.heuristic) {
      heur_spec.st_target = target;
      LocalSearchResult lsr = local_search_remap(heur_spec, ls_opts);
      solved_ok = lsr.feasible;
      if (solved_ok) solved_fp = std::move(lsr.floorplan);
      status_str = solved_ok ? "feasible" : "infeasible";
    }
    const bool ls_feasible = solved_ok;
    if (sinfo.exact && !ls_feasible) {
      const TwoStepResult solved = attempt_session.solve(target);
      vars = attempt_session.model().num_binary_vars;
      status_str = milp::to_string(solved.status);
      if (solved.status == milp::SolveStatus::kOptimal) {
        solved_ok = true;
        solved_fp = solved.floorplan;
      }
    }
    if (sinfo.exact && sinfo.heuristic) {
      const char* winner = ls_feasible ? "ls" : solved_ok ? "exact" : "none";
      obs::Event pev(ls_opts.events, "portfolio.result");
      pev.arg("winner", winner)
          .arg("st_target", target)
          .arg("ls_feasible", ls_feasible);
      if (!ls_feasible) pev.arg("exact_status", status_str);
      pev.arg("seconds", now_seconds() - t_iter);
      status_str = std::string("portfolio_") + winner;
    }

    bool cpd_ok = false;
    // Set when the floorplan certificate rejects the solution; the
    // attempt then fails without an STA re-check.
    std::string certify_error;
    if (solved_ok) {
      CGRAF_ASSERT(is_valid(design, solved_fp, &why));
      // A feasible local-search floorplan already passed the in-search
      // certify_floorplan oracle (same spec as this gate); re-certifying it
      // would be a no-op.
      if (opts.verify.enabled && !ls_feasible) {
        verify::FloorplanSpec fspec;
        fspec.design = &design;
        fspec.reference = &base;
        fspec.frozen = frozen;
        fspec.st_target = target;
        fspec.monitored = &monitored;
        fspec.cpd_ns = res.cpd_before_ns;
        const verify::Certificate cert =
            verify::certify_floorplan(fspec, solved_fp);
        if (!cert.ok) {
          ++res.certify_rejections;
          certify_error = cert.summary();
        }
      }
      if (certify_error.empty()) {
        const timing::StaResult sta1 = run_sta(graph, solved_fp);
        cpd_ok = sta1.cpd_ns <= res.cpd_before_ns + 1e-9;
        if (cpd_ok) {
          out = std::move(solved_fp);
          out_cpd = sta1.cpd_ns;
        }
      }
    }
    obs::Event ev(events, "remap.attempt");
    ev.arg("iter", res.outer_iterations)
        .arg("st_target", target)
        .arg("status", status_str)
        .arg("strategy", to_string(opts.strategy))
        .arg("cpd_ok", cpd_ok)
        .arg("vars", vars)
        .arg("seconds", now_seconds() - t_iter);
    if (!certify_error.empty()) ev.arg("certify_error", certify_error);
    return cpd_ok;
  };

  // Scan upward: Delta steps, escalating geometrically toward the cap
  // after failures so a hard instance costs O(log) failed solves, not
  // O(1/Delta). The cap is ST_max, where the baseline itself is feasible.
  const double scan_cap = res.st_max_before;
  Floorplan found;
  double found_cpd = 0.0;
  double found_at = -1.0;
  double last_fail = -1.0;
  for (int iter = 0; iter < kMaxAttempts; ++iter) {
    if (attempt(st_target, found, found_cpd)) {
      found_at = st_target;
      break;
    }
    last_fail = st_target;
    if (st_target >= scan_cap * (1.0 + 1e-9)) break;
    const double step = std::max(delta, (scan_cap - st_target) / 3.0);
    st_target = std::min(st_target + step, scan_cap * (1.0 + 1e-9));
  }

  if (found_at < 0.0) {
    keep_baseline("no improving floorplan found; baseline kept");
    return res;
  }
  // Bisect back toward the last failure to tighten the balance; a failed
  // attempt leaves `found` untouched.
  if (last_fail >= 0.0) {
    found_at = bisect_st_target(
        last_fail, found_at, kRefineProbes, delta,
        [&](double target) { return attempt(target, found, found_cpd); });
  }

  const StressMap stress1 = compute_stress(design, found);
  const bool stress_improved =
      stress1.max_accumulated() < res.st_max_before - 1e-12;
  if (!stress_improved) {
    keep_baseline("solution found but no stress improvement");
    return res;
  }
  // Every kept candidate passed the per-attempt certificate above.
  res.improved = true;
  res.certified = opts.verify.enabled;
  res.floorplan = std::move(found);
  res.cpd_after_ns = found_cpd;
  res.st_max_after = stress1.max_accumulated();
  res.st_target_final = found_at;
  res.note = "remapped at st_target=" + fmt_double(found_at, 4) + " after " +
             std::to_string(res.outer_iterations) + " iteration(s)";
  res.mttf_after =
      aging::compute_mttf(design, res.floorplan, opts.nbti, opts.thermal);
  res.mttf_gain = res.mttf_after.mttf_seconds / res.mttf_before.mttf_seconds;
  emit_end();
  return res;
}

}  // namespace cgraf::core
