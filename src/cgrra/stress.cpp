#include "cgrra/stress.h"

#include <algorithm>

#include "util/check.h"

namespace cgraf {

double StressMap::max_accumulated() const {
  double m = 0.0;
  for (const double v : accumulated) m = std::max(m, v);
  return m;
}

double StressMap::avg_accumulated() const {
  if (accumulated.empty()) return 0.0;
  double s = 0.0;
  for (const double v : accumulated) s += v;
  return s / static_cast<double>(accumulated.size());
}

StressMap compute_stress(const Design& design, const Floorplan& fp) {
  CGRAF_ASSERT(fp.op_to_pe.size() == design.ops.size());
  const int n_pes = design.fabric.num_pes();
  StressMap map;
  map.accumulated.assign(static_cast<std::size_t>(n_pes), 0.0);
  map.per_context.assign(static_cast<std::size_t>(design.num_contexts),
                         std::vector<double>(static_cast<std::size_t>(n_pes),
                                             0.0));
  for (const Operation& op : design.ops) {
    const int pe = fp.pe_of(op.id);
    const double st = op_stress(op, design.fabric);
    map.accumulated[static_cast<std::size_t>(pe)] += st;
    map.per_context[static_cast<std::size_t>(op.context)]
                   [static_cast<std::size_t>(pe)] += st;
  }
  return map;
}

}  // namespace cgraf
