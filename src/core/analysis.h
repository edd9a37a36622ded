// Floorplan analysis: quantitative comparison of two bindings of the same
// design (baseline vs. re-mapped). Used by the CLI's report command and
// handy for debugging floorplans in tests.
#pragma once

#include <string>
#include <vector>

#include "cgrra/design.h"
#include "cgrra/floorplan.h"

namespace cgraf::core {

struct FloorplanDiff {
  int ops_total = 0;
  int ops_moved = 0;
  int max_displacement = 0;     // Manhattan, in PE pitches
  double avg_displacement = 0;  // over all ops (unmoved count as 0)
  // Total Manhattan wirelength over *all* dataflow edges (combinational
  // and registered).
  long long wirelength_before = 0;
  long long wirelength_after = 0;
  double cpd_before_ns = 0;
  double cpd_after_ns = 0;
  double st_max_before = 0;
  double st_max_after = 0;
  std::vector<int> moved_ops;  // ids, ascending
};

FloorplanDiff diff_floorplans(const Design& design, const Floorplan& before,
                              const Floorplan& after);

// Human-readable summary of a diff.
std::string format_diff(const FloorplanDiff& diff);

}  // namespace cgraf::core
