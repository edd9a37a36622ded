// Step 1 of Algorithm 1: MILP-based stress-time constraint determination.
//
// Binary-searches the smallest accumulated-stress target ST_target in
// [ST_low, ST_up] for which formulation (3) *without* critical-path and
// path-delay constraints is feasible. ST_up is the highest accumulated
// stress of the aging-unaware floorplan; ST_low its fabric-wide average.
// Because the delay constraints are ignored, the result is a lower bound on
// any delay-feasible target (the paper's "initial value"). After one probe
// at ST_low it bisects for at most 16 probes (kProbes), stopping once the
// bracket is narrower than 2% of ST_up - ST_low (kTolFrac).
#pragma once

#include <functional>

#include "cgrra/design.h"
#include "cgrra/floorplan.h"
#include "core/two_step.h"

namespace cgraf::core {

struct StTargetOptions {
  // Feasibility oracle. Default: the LP relaxation only (fast, and the
  // searched value is explicitly a lower bound). Set confirm_with_ilp to
  // run the paper's full LP-round-ILP at each probe instead.
  bool confirm_with_ilp = false;
  // Incremental probing (core/probe_session.h): build the remap model once,
  // patch only the stress rows' RHS between probes and warm-start each LP
  // from the previous probe's basis. Off = the legacy cold rebuild per
  // probe; verdicts and the found target are identical either way.
  bool warm_probes = true;
  TwoStepOptions solver;
};

// One binary-search probe, in solve order.
struct StProbe {
  double st_target = 0.0;
  bool feasible = false;
  double seconds = 0.0;  // wall time of this probe's solve
};

struct StTargetResult {
  bool ok = false;
  double st_target = 0.0;  // smallest feasible probe found
  double st_low = 0.0;     // fabric-average accumulated stress
  double st_up = 0.0;      // max accumulated stress of the baseline
  int probes = 0;
  long lp_iterations = 0;
  milp::LpStageStats lp_stage;  // aggregated over all probe LPs
  // Probes whose solver answer failed independent certification (counted as
  // infeasible; solver.verify.enabled turns the check on).
  int certify_failures = 0;
  // Incremental-session accounting (all zero with warm_probes == false
  // except model_rebuilds, which then equals probes).
  int warm_hits = 0;        // solves started from the previous probe's basis
  int basis_fallbacks = 0;  // chained basis abandoned for the slack basis
  int model_rebuilds = 0;   // full build_remap_model calls
  // Per-probe log, in solve order: target, verdict, wall seconds. The
  // differential tests compare it probe by probe; the benches derive their
  // probe-time percentiles from it.
  std::vector<StProbe> probe_log;
};

StTargetResult find_st_target(const Design& design, const Floorplan& baseline,
                              const StTargetOptions& opts = {});

// The one ST_target bisection, shared by Step 1, the remapper's LP
// presearch and its refinement: each probe moves `hi` (feasible) or `lo`
// (infeasible) to the midpoint, until `max_probes` probes are made or
// hi - lo <= tol (an empty bracket makes no probe). Returns `hi`.
double bisect_st_target(double lo, double hi, int max_probes, double tol,
                        const std::function<bool(double)>& feasible);

}  // namespace cgraf::core
