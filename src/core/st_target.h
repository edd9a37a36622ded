// Step 1 of Algorithm 1: stress-time constraint determination.
//
// The paper binary-searches the smallest accumulated-stress target
// ST_target in [ST_low, ST_up] for which formulation (3) *without*
// critical-path and path-delay constraints is feasible. ST_up is the highest
// accumulated stress of the aging-unaware floorplan; ST_low its fabric-wide
// average. Checked with the LP relaxation, that search always ends at
// ST_low (see find_st_target), so this module returns ST_low in closed form
// from the baseline stress map: a lower bound on any delay-feasible target
// (the paper's "initial value").
#pragma once

#include <functional>

#include "cgrra/design.h"
#include "cgrra/floorplan.h"
#include "core/two_step.h"

namespace cgraf::core {

struct StTargetOptions {
  // Only `solver.events` is read: the sink for the st.search_* records.
  TwoStepOptions solver;
};

struct StTargetResult {
  bool ok = false;
  double st_target = 0.0;  // the Step-1 lower bound (== st_low)
  double st_low = 0.0;     // fabric-average accumulated stress
  double st_up = 0.0;      // max accumulated stress of the baseline
};

StTargetResult find_st_target(const Design& design, const Floorplan& baseline,
                              const StTargetOptions& opts = {});

// The one ST_target bisection, shared by the remapper's LP presearch and
// its refinement: each probe moves `hi` (feasible) or `lo` (infeasible) to
// the midpoint, until `max_probes` probes are made or hi - lo <= tol (an
// empty bracket makes no probe). Returns `hi`.
double bisect_st_target(double lo, double hi, int max_probes, double tol,
                        const std::function<bool(double)>& feasible);

}  // namespace cgraf::core
