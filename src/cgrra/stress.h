// Accumulated NBTI stress-time maps (paper Fig. 2(a) / Section III).
#pragma once

#include <vector>

#include "cgrra/design.h"
#include "cgrra/floorplan.h"

namespace cgraf {

struct StressMap {
  // accumulated[pe]: total stress time (in fractions of a clock period)
  // contributed by all contexts over one full configuration round.
  std::vector<double> accumulated;
  // per_context[c][pe]: stress contributed by context c alone.
  std::vector<std::vector<double>> per_context;

  double max_accumulated() const;
  // Mean over *all* fabric PEs (the paper's ST_low, which Step 1 returns
  // as its target), not just the used ones.
  double avg_accumulated() const;
};

StressMap compute_stress(const Design& design, const Floorplan& fp);

}  // namespace cgraf
