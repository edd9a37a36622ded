// Step 2.1 of Algorithm 1: critical-path rotation.
//
// Freezing critical-path (CP) ops at their original PEs protects the CPD
// but can pin the most-stressed PEs. Each context's frozen CP group is
// therefore rigidly re-oriented among the 8 grid isometries (4 rotations x
// mirror, paper Fig. 4(a)) — Manhattan distances, and hence the CP delay,
// are invariant under all 8. Orientations are drawn with the paper's
// diversity rule: with <= 8 contexts all orientations differ; beyond 8,
// each orientation appears floor(C/8) or floor(C/8)+1 times. Among random
// draws respecting the rule, the plan with the smallest stress-weighted
// overlap of frozen PEs across contexts wins. When 8^C is at most 4096
// (C <= 4, rotation.cpp's kExhaustiveLimit), all 8^C combinations — the
// paper's full scheme, whose runtime blow-up it notes — are enumerated
// exactly and the minimum-overlap plan wins instead.
#pragma once

#include <cstdint>
#include <vector>

#include "cgrra/design.h"
#include "cgrra/floorplan.h"
#include "util/rng.h"

namespace cgraf::core {

struct RotationOptions {
  int restarts = 12;
  std::uint64_t seed = 1;
};

struct RotationResult {
  // Baseline floorplan with each context's frozen ops moved to their
  // re-oriented PEs (free ops untouched; the result is *not* necessarily a
  // valid floorplan — free ops are about to be re-bound by the MILP).
  Floorplan rotated_base;
  std::vector<int> orientation_per_context;  // 0..7, 0 = identity
  double overlap_cost = 0.0;  // stress-weighted frozen-PE overlap
  bool ok = false;
};

// Applies grid isometry `orientation` (0..7) to `points` and translates the
// result so its bounding box lands as close as possible to the original
// bounding-box corner while staying inside the fabric.
std::vector<Point> apply_orientation(const std::vector<Point>& points,
                                     int orientation, const Fabric& fabric);

// Plans rotations for the per-context frozen op groups. `frozen_by_context`
// lists each context's frozen op ids (possibly empty).
RotationResult rotate_critical_paths(
    const Design& design, const Floorplan& baseline,
    const std::vector<std::vector<int>>& frozen_by_context,
    const RotationOptions& opts = {});

}  // namespace cgraf::core
