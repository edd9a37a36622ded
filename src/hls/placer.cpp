#include "hls/placer.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace cgraf::hls {
namespace {

// Placement state of one context during annealing.
struct ContextState {
  const Design* design;
  const std::vector<int>* ops;             // ops of this context
  std::vector<std::pair<int, int>> comb;   // same-context edges (local idx)
  std::vector<std::pair<int, Point>> cross;  // (local idx, fixed other end)
  std::vector<double> delay;               // PE delay per local op
  std::vector<std::vector<int>> fanout;    // local comb adjacency
  std::vector<int> topo;                   // local topological order

  std::vector<Point> pos;                  // current position per local op
  std::vector<int> occupant;               // per PE: local op or -1
};

double context_cpd(const ContextState& s, const Fabric& fabric) {
  std::vector<double> arrival(s.pos.size(), 0.0);
  double cpd = 0.0;
  for (const int u : s.topo) {
    arrival[static_cast<size_t>(u)] += s.delay[static_cast<size_t>(u)];
    cpd = std::max(cpd, arrival[static_cast<size_t>(u)]);
    for (const int v : s.fanout[static_cast<size_t>(u)]) {
      const double t = arrival[static_cast<size_t>(u)] +
                       fabric.wire_delay_ns(s.pos[static_cast<size_t>(u)],
                                            s.pos[static_cast<size_t>(v)]);
      arrival[static_cast<size_t>(v)] =
          std::max(arrival[static_cast<size_t>(v)], t);
    }
  }
  return cpd;
}

double cost(const ContextState& s, const Fabric& fabric,
            const PlacerOptions& opts) {
  double wire = 0.0;
  for (const auto& [a, b] : s.comb)
    wire += manhattan(s.pos[static_cast<size_t>(a)],
                      s.pos[static_cast<size_t>(b)]);
  double cross = 0.0;
  for (const auto& [a, p] : s.cross)
    cross += manhattan(s.pos[static_cast<size_t>(a)], p);
  Rect box;
  for (const Point p : s.pos) box.expand(p);
  const double cpd = context_cpd(s, fabric);
  const double violation = std::max(0.0, cpd - fabric.clock_period_ns());
  return opts.w_wirelength * wire + opts.w_cross * cross +
         opts.w_bbox * static_cast<double>(box.area()) +
         opts.w_anchor * (box.x0 + box.y0 + box.x1 + box.y1) +
         opts.timing_penalty * violation;
}

}  // namespace

Floorplan place_baseline(const Design& design, const PlacerOptions& opts) {
  const Fabric& fabric = design.fabric;
  Floorplan fp;
  fp.op_to_pe.assign(design.ops.size(), -1);
  Rng rng(opts.seed);

  const auto by_context = design.ops_by_context();
  for (int c = 0; c < design.num_contexts; ++c) {
    const std::vector<int>& ops = by_context[static_cast<size_t>(c)];
    if (ops.empty()) continue;
    const int m = static_cast<int>(ops.size());
    CGRAF_ASSERT(m <= fabric.num_pes());

    // Local index per global op id.
    std::vector<int> local(design.ops.size(), -1);
    for (int i = 0; i < m; ++i) local[static_cast<size_t>(ops[static_cast<size_t>(i)])] = i;

    ContextState s;
    s.design = &design;
    s.ops = &ops;
    s.delay.resize(static_cast<size_t>(m));
    s.fanout.assign(static_cast<size_t>(m), {});
    for (int i = 0; i < m; ++i) {
      s.delay[static_cast<size_t>(i)] = op_delay_ns(
          design.ops[static_cast<size_t>(ops[static_cast<size_t>(i)])],
          fabric.delays());
    }
    std::vector<int> indeg(static_cast<size_t>(m), 0);
    for (const Edge& e : design.edges) {
      const int lf = local[static_cast<size_t>(e.from)];
      const int lt = local[static_cast<size_t>(e.to)];
      if (lf >= 0 && lt >= 0) {
        s.comb.emplace_back(lf, lt);
        s.fanout[static_cast<size_t>(lf)].push_back(lt);
        ++indeg[static_cast<size_t>(lt)];
      } else if (lt >= 0 && lf < 0 &&
                 fp.op_to_pe[static_cast<size_t>(e.from)] >= 0) {
        s.cross.emplace_back(
            lt, fabric.loc(fp.op_to_pe[static_cast<size_t>(e.from)]));
      } else if (lf >= 0 && lt < 0 &&
                 fp.op_to_pe[static_cast<size_t>(e.to)] >= 0) {
        s.cross.emplace_back(
            lf, fabric.loc(fp.op_to_pe[static_cast<size_t>(e.to)]));
      }
    }
    // Local topological order (the design is validated to be acyclic).
    {
      std::vector<int> queue;
      for (int i = 0; i < m; ++i)
        if (indeg[static_cast<size_t>(i)] == 0) queue.push_back(i);
      while (!queue.empty()) {
        const int u = queue.back();
        queue.pop_back();
        s.topo.push_back(u);
        for (const int v : s.fanout[static_cast<size_t>(u)])
          if (--indeg[static_cast<size_t>(v)] == 0) queue.push_back(v);
      }
      CGRAF_ASSERT(static_cast<int>(s.topo.size()) == m);
    }

    // Initial placement: compact square block at the origin, topo order for
    // locality between chained ops.
    const int side = std::min(
        fabric.cols(),
        std::max(1, static_cast<int>(std::ceil(std::sqrt(m)))));
    s.pos.resize(static_cast<size_t>(m));
    s.occupant.assign(static_cast<size_t>(fabric.num_pes()), -1);
    for (int i = 0; i < m; ++i) {
      const int u = s.topo[static_cast<size_t>(i)];
      Point p{i % side, i / side};
      // Fall back to scanning when the square spills past the last row.
      while (!fabric.in_bounds(p) ||
             s.occupant[static_cast<size_t>(fabric.pe_at(p))] >= 0) {
        const int pe = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(fabric.num_pes())));
        p = fabric.loc(pe);
      }
      s.pos[static_cast<size_t>(u)] = p;
      s.occupant[static_cast<size_t>(fabric.pe_at(p))] = u;
    }

    // Simulated annealing.
    double current = cost(s, fabric, opts);
    std::vector<Point> best_pos = s.pos;
    double best = current;
    const long total_moves =
        static_cast<long>(opts.moves_per_op) * std::max(8, m);
    const double cool =
        std::pow(opts.t_end / opts.t_start,
                 1.0 / static_cast<double>(std::max<long>(1, total_moves)));
    double temperature = opts.t_start;
    for (long move = 0; move < total_moves; ++move, temperature *= cool) {
      const int u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m)));
      const Point old_u = s.pos[static_cast<size_t>(u)];
      const int target_pe = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(fabric.num_pes())));
      const Point target = fabric.loc(target_pe);
      if (target == old_u) continue;
      const int v = s.occupant[static_cast<size_t>(target_pe)];

      // Apply move (swap if occupied).
      s.pos[static_cast<size_t>(u)] = target;
      s.occupant[static_cast<size_t>(target_pe)] = u;
      s.occupant[static_cast<size_t>(fabric.pe_at(old_u))] = v;
      if (v >= 0) s.pos[static_cast<size_t>(v)] = old_u;

      const double next = cost(s, fabric, opts);
      const double delta = next - current;
      if (delta <= 0.0 ||
          rng.next_double() < std::exp(-delta / std::max(1e-9, temperature))) {
        current = next;
        if (current < best) {
          best = current;
          best_pos = s.pos;
        }
      } else {
        // Revert.
        s.pos[static_cast<size_t>(u)] = old_u;
        s.occupant[static_cast<size_t>(fabric.pe_at(old_u))] = u;
        s.occupant[static_cast<size_t>(target_pe)] = v;
        if (v >= 0) s.pos[static_cast<size_t>(v)] = target;
      }
    }

    for (int i = 0; i < m; ++i) {
      fp.op_to_pe[static_cast<size_t>(ops[static_cast<size_t>(i)])] =
          fabric.pe_at(best_pos[static_cast<size_t>(i)]);
    }
  }

  std::string why;
  CGRAF_ASSERT(is_valid(design, fp, &why));
  return fp;
}

}  // namespace cgraf::hls
