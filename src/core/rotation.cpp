#include "core/rotation.h"

#include <algorithm>
#include <array>

#include "cgrra/stress.h"
#include "util/check.h"

namespace cgraf::core {
namespace {

// Enumerate all 8^C orientation combinations exactly when there are at most
// this many (C <= 4); beyond that, use the randomized diversity-rule draw.
constexpr long kExhaustiveLimit = 4096;

// The paper's orientation-diversity rule for one draw: a multiset of C
// orientations in which, for C <= 8, all entries are distinct, and for
// C > 8, every orientation appears floor(C/8) times with the remainder
// spread over distinct extra orientations.
std::vector<int> draw_orientations(int contexts, Rng& rng) {
  std::vector<int> all{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(all);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(contexts));
  const int base = contexts / 8;
  const int extra = contexts % 8;
  for (int o = 0; o < 8; ++o) {
    for (int k = 0; k < base; ++k) out.push_back(all[static_cast<std::size_t>(o)]);
    if (o < extra) out.push_back(all[static_cast<std::size_t>(o)]);
  }
  out.resize(static_cast<std::size_t>(contexts));
  rng.shuffle(out);
  return out;
}

}  // namespace

std::vector<Point> apply_orientation(const std::vector<Point>& points,
                                     int orientation, const Fabric& fabric) {
  CGRAF_ASSERT(orientation >= 0 && orientation < 8);
  const bool mirror = orientation >= 4;
  const int quarter_turns = orientation % 4;

  Rect orig_box;
  for (const Point p : points) orig_box.expand(p);

  std::vector<Point> out;
  out.reserve(points.size());
  for (Point p : points) {
    if (mirror) p.x = -p.x;
    for (int r = 0; r < quarter_turns; ++r) p = Point{-p.y, p.x};
    out.push_back(p);
  }

  Rect box;
  for (const Point p : out) box.expand(p);
  CGRAF_ASSERT(box.width() <= fabric.cols() && box.height() <= fabric.rows());
  // Land the transformed box at the original corner, clamped into bounds.
  const int tx = std::clamp(orig_box.x0, 0, fabric.cols() - box.width()) -
                 box.x0;
  const int ty = std::clamp(orig_box.y0, 0, fabric.rows() - box.height()) -
                 box.y0;
  for (Point& p : out) {
    p = p + Point{tx, ty};
    CGRAF_ASSERT(fabric.in_bounds(p));
  }
  return out;
}

RotationResult rotate_critical_paths(
    const Design& design, const Floorplan& baseline,
    const std::vector<std::vector<int>>& frozen_by_context,
    const RotationOptions& opts) {
  CGRAF_ASSERT(static_cast<int>(frozen_by_context.size()) ==
               design.num_contexts);
  const Fabric& fabric = design.fabric;
  Rng rng(opts.seed);

  // Per-context original positions and stress of the frozen groups.
  std::vector<std::vector<Point>> group_pos(frozen_by_context.size());
  std::vector<std::vector<double>> group_stress(frozen_by_context.size());
  for (std::size_t c = 0; c < frozen_by_context.size(); ++c) {
    for (const int op : frozen_by_context[c]) {
      group_pos[c].push_back(fabric.loc(baseline.pe_of(op)));
      group_stress[c].push_back(
          op_stress(design.ops[static_cast<std::size_t>(op)], fabric));
    }
  }

  // Pre-place every (context, orientation) pair once; plan evaluation then
  // only sums stress maps.
  std::vector<std::array<std::vector<Point>, 8>> placed_by_orientation(
      frozen_by_context.size());
  for (std::size_t c = 0; c < frozen_by_context.size(); ++c) {
    if (group_pos[c].empty()) continue;
    for (int o = 0; o < 8; ++o)
      placed_by_orientation[c][static_cast<std::size_t>(o)] =
          apply_orientation(group_pos[c], o, fabric);
  }

  std::vector<double> pe_stress(static_cast<std::size_t>(fabric.num_pes()),
                                0.0);
  auto plan_cost = [&](const std::vector<int>& orientations) {
    std::fill(pe_stress.begin(), pe_stress.end(), 0.0);
    for (std::size_t c = 0; c < frozen_by_context.size(); ++c) {
      if (group_pos[c].empty()) continue;
      const auto& pts = placed_by_orientation[c][static_cast<std::size_t>(
          orientations[c])];
      for (std::size_t i = 0; i < pts.size(); ++i)
        pe_stress[static_cast<std::size_t>(fabric.pe_at(pts[i]))] +=
            group_stress[c][i];
    }
    // Stress-weighted overlap: squaring penalizes piling several contexts'
    // critical paths on the same PE.
    double cost = 0.0;
    for (const double s : pe_stress) cost += s * s;
    return cost;
  };
  auto commit = [&](RotationResult& out, const std::vector<int>& orientations,
                    double cost) {
    out.ok = true;
    out.overlap_cost = cost;
    out.orientation_per_context = orientations;
    out.rotated_base = baseline;
    for (std::size_t c = 0; c < frozen_by_context.size(); ++c) {
      const auto& pts = placed_by_orientation[c][static_cast<std::size_t>(
          orientations[c])];
      for (std::size_t i = 0; i < frozen_by_context[c].size(); ++i) {
        out.rotated_base.op_to_pe[static_cast<std::size_t>(
            frozen_by_context[c][i])] = fabric.pe_at(pts[i]);
      }
    }
  };

  // Exact enumeration of all 8^C combinations when affordable (the paper's
  // full Step-2.1 search space).
  double combos = 1.0;
  for (int c = 0; c < design.num_contexts; ++c) combos *= 8.0;
  if (combos <= static_cast<double>(kExhaustiveLimit)) {
    RotationResult best;
    std::vector<int> orientations(
        static_cast<std::size_t>(design.num_contexts), 0);
    std::vector<int> best_orientations;
    double best_cost = 0.0;
    bool have = false;
    for (long combo = 0; combo < static_cast<long>(combos); ++combo) {
      long v = combo;
      for (std::size_t c = 0; c < orientations.size(); ++c) {
        orientations[c] = static_cast<int>(v & 7);
        v >>= 3;
      }
      const double cost = plan_cost(orientations);
      if (!have || cost < best_cost) {
        have = true;
        best_cost = cost;
        best_orientations = orientations;
      }
    }
    commit(best, best_orientations, best_cost);
    return best;
  }

  RotationResult best;
  for (int restart = 0; restart <= std::max(1, opts.restarts); ++restart) {
    // Draw 0 is the identity plan: the paper's full scheme considers all
    // 8^C orientation combinations, which includes "rotate nothing" — so a
    // diverse draw must actually beat the un-rotated overlap to be used.
    const std::vector<int> orientations =
        restart == 0 ? std::vector<int>(
                           static_cast<std::size_t>(design.num_contexts), 0)
                     : draw_orientations(design.num_contexts, rng);
    const double cost = plan_cost(orientations);
    if (!best.ok || cost < best.overlap_cost) commit(best, orientations, cost);
  }
  return best;
}

}  // namespace cgraf::core
