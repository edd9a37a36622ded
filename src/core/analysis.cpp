#include "core/analysis.h"

#include <algorithm>

#include "cgrra/stress.h"
#include "timing/sta.h"
#include "util/ascii.h"
#include "util/check.h"
#include "util/geometry.h"

namespace cgraf::core {

FloorplanDiff diff_floorplans(const Design& design, const Floorplan& before,
                              const Floorplan& after) {
  CGRAF_ASSERT(before.op_to_pe.size() == design.ops.size());
  CGRAF_ASSERT(after.op_to_pe.size() == design.ops.size());
  const Fabric& fabric = design.fabric;

  FloorplanDiff diff;
  diff.ops_total = design.num_ops();
  long long total_displacement = 0;
  for (const Operation& op : design.ops) {
    const int d = manhattan(fabric.loc(before.pe_of(op.id)),
                            fabric.loc(after.pe_of(op.id)));
    if (d > 0) {
      ++diff.ops_moved;
      diff.moved_ops.push_back(op.id);
    }
    diff.max_displacement = std::max(diff.max_displacement, d);
    total_displacement += d;
  }
  diff.avg_displacement =
      diff.ops_total > 0
          ? static_cast<double>(total_displacement) / diff.ops_total
          : 0.0;

  for (const Edge& e : design.edges) {
    diff.wirelength_before += manhattan(fabric.loc(before.pe_of(e.from)),
                                        fabric.loc(before.pe_of(e.to)));
    diff.wirelength_after += manhattan(fabric.loc(after.pe_of(e.from)),
                                       fabric.loc(after.pe_of(e.to)));
  }

  diff.cpd_before_ns = timing::run_sta(design, before).cpd_ns;
  diff.cpd_after_ns = timing::run_sta(design, after).cpd_ns;
  diff.st_max_before = compute_stress(design, before).max_accumulated();
  diff.st_max_after = compute_stress(design, after).max_accumulated();
  return diff;
}

std::string format_diff(const FloorplanDiff& diff) {
  std::string out;
  out += "ops moved       : " + std::to_string(diff.ops_moved) + " / " +
         std::to_string(diff.ops_total) + "\n";
  out += "displacement    : avg " + fmt_double(diff.avg_displacement, 2) +
         ", max " + std::to_string(diff.max_displacement) + " (PE pitches)\n";
  out += "wirelength      : " + std::to_string(diff.wirelength_before) +
         " -> " + std::to_string(diff.wirelength_after) + "\n";
  out += "cpd (ns)        : " + fmt_double(diff.cpd_before_ns, 3) + " -> " +
         fmt_double(diff.cpd_after_ns, 3) + "\n";
  out += "max stress      : " + fmt_double(diff.st_max_before, 3) + " -> " +
         fmt_double(diff.st_max_after, 3) + "\n";
  return out;
}

}  // namespace cgraf::core
