#include "core/candidates.h"

#include <algorithm>

#include "util/check.h"

namespace cgraf::core {
namespace {

// One monitored-path occurrence of an op: its neighbours' current
// positions (either may be absent at path ends) and the path's wire-length
// allowance for this op.
struct Occurrence {
  bool has_prev = false, has_next = false;
  Point prev, next;
  double allowance = 0.0;  // max wire units this op may contribute alone
};

}  // namespace

std::vector<std::vector<int>> compute_candidates(
    const Design& design, const Floorplan& base,
    const std::vector<char>& frozen,
    const std::vector<timing::TimingPath>& monitored, double cpd_ns,
    const CandidateOptions& opts) {
  const Fabric& fabric = design.fabric;
  const int n_ops = design.num_ops();
  const int n_pes = fabric.num_pes();
  CGRAF_ASSERT(static_cast<int>(frozen.size()) == n_ops);
  CGRAF_ASSERT(static_cast<int>(base.op_to_pe.size()) == n_ops);

  const double uwd = fabric.unit_wire_delay_ns();
  std::vector<std::vector<Occurrence>> occ(static_cast<std::size_t>(n_ops));

  for (const timing::TimingPath& path : monitored) {
    // Wire-length budget of the whole path (Eq. (5)).
    const double budget =
        uwd > 0.0 ? (cpd_ns - path.pe_delay_ns) / uwd
                  : 1e18;  // zero wire delay: distance is unconstrained
    // Current total wire length of the path under `base`.
    double current = 0.0;
    for (std::size_t i = 0; i + 1 < path.ops.size(); ++i) {
      current += manhattan(
          fabric.loc(base.pe_of(path.ops[i])),
          fabric.loc(base.pe_of(path.ops[i + 1])));
    }
    for (std::size_t i = 0; i < path.ops.size(); ++i) {
      const int op = path.ops[i];
      if (frozen[static_cast<std::size_t>(op)]) continue;
      Occurrence o;
      double own = 0.0;  // this op's current wire contribution on the path
      if (i > 0) {
        o.has_prev = true;
        o.prev = fabric.loc(base.pe_of(path.ops[i - 1]));
        own += manhattan(o.prev, fabric.loc(base.pe_of(op)));
      }
      if (i + 1 < path.ops.size()) {
        o.has_next = true;
        o.next = fabric.loc(base.pe_of(path.ops[i + 1]));
        own += manhattan(fabric.loc(base.pe_of(op)), o.next);
      }
      // Moving only this op: new_own <= budget - (current - own).
      o.allowance = (budget - (current - own)) * opts.slack_multiplier;
      occ[static_cast<std::size_t>(op)].push_back(o);
    }
  }

  std::vector<std::vector<int>> candidates(static_cast<std::size_t>(n_ops));
  for (int op = 0; op < n_ops; ++op) {
    auto& cand = candidates[static_cast<std::size_t>(op)];
    const int orig_pe = base.pe_of(op);
    if (frozen[static_cast<std::size_t>(op)]) {
      cand.push_back(orig_pe);
      continue;
    }
    const auto& occurrences = occ[static_cast<std::size_t>(op)];
    for (int pe = 0; pe < n_pes; ++pe) {
      if (pe == orig_pe) continue;  // added unconditionally below
      const Point p = fabric.loc(pe);
      bool ok = true;
      for (const Occurrence& o : occurrences) {
        double contribution = 0.0;
        if (o.has_prev) contribution += manhattan(o.prev, p);
        if (o.has_next) contribution += manhattan(p, o.next);
        if (contribution > o.allowance + 1e-9) {
          ok = false;
          break;
        }
      }
      if (ok) cand.push_back(pe);
    }
    cand.push_back(orig_pe);
    std::sort(cand.begin(), cand.end());
  }
  return candidates;
}

}  // namespace cgraf::core
