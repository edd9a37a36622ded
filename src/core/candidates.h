// Candidate-PE computation for the re-binding MILP.
//
// Formulation (3) nominally has one binary per (op, PE) pair. A PE is only
// a useful candidate for an op if binding the op there cannot by itself
// blow the wire-length budget of some monitored path through the op, so we
// prune per-op candidate sets with a per-path slack test before building
// the model. This is a model-size optimization, not a semantic change: the
// original PE is always kept, and the joint path constraints are still
// enforced exactly inside the MILP (see DESIGN.md §5).
#pragma once

#include <vector>

#include "cgrra/design.h"
#include "cgrra/floorplan.h"
#include "timing/paths.h"

namespace cgraf::core {

struct CandidateOptions {
  // Loosens the per-path slack test: a candidate passes if its single-op
  // wire contribution is within slack_multiplier x the path's allowance.
  // Values > 1 admit candidates that are only feasible jointly with
  // neighbour moves (the joint path constraints in the model stay exact).
  double slack_multiplier = 1.25;
};

// candidates[op] = PEs the op may be bound to. Frozen ops get exactly their
// current PE. `base` must carry the frozen ops' final (possibly rotated)
// positions; `cpd_ns` is the original critical-path delay that all path
// budgets are measured against.
std::vector<std::vector<int>> compute_candidates(
    const Design& design, const Floorplan& base,
    const std::vector<char>& frozen,
    const std::vector<timing::TimingPath>& monitored, double cpd_ns,
    const CandidateOptions& opts = {});

}  // namespace cgraf::core
