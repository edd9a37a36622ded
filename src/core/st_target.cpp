#include "core/st_target.h"

#include "cgrra/stress.h"
#include "obs/event_log.h"
#include "util/clock.h"
#include "verify/input_lint.h"

namespace cgraf::core {

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
  // Input boundary: compute_stress indexes the design freely, so garbage
  // must be turned away first (DL rule errors).
  if (!verify::lint_inputs(design, &baseline).clean()) {
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

  // Step 1's model frees every op, makes every PE a candidate and has no
  // path rows, and its LP relaxation is feasible exactly down to ST_low:
  //  - the per-PE stress rows sum to the total stress, N * ST_low (N PEs),
  //    so no target below ST_low is feasible;
  //  - x[op][pe] = 1/N fills every assignment row to 1, every exclusivity
  //    row to (ops in that context) / N <= 1 (a valid baseline, which the
  //    lint above guarantees, binds each context's ops to distinct PEs),
  //    and every stress row to exactly ST_low.
  // So the search's first probe, at ST_low, always succeeds; no solve is
  // needed. A stress-free design gives ST_low = ST_up = 0.
  res.ok = true;
  res.st_target = res.st_low;
  obs::Event(events, "st.search_end")
      .arg("st_target", res.st_target)
      .arg("probes", 0L)
      .arg("seconds", now_seconds() - t_start);
  return res;
}

}  // namespace cgraf::core
