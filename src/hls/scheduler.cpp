#include "hls/scheduler.h"

#include <algorithm>

#include "util/check.h"

namespace cgraf::hls {
namespace {

double node_delay(const Dfg& dfg, int u, const PeDelayModel& delays) {
  const DfgNode& n = dfg.node(u);
  Operation op;
  op.kind = n.kind;
  op.bitwidth = n.bitwidth;
  return op_delay_ns(op, delays);
}

}  // namespace

ScheduleResult list_schedule(const Dfg& dfg, const ScheduleOptions& opts) {
  ScheduleResult res;
  if (opts.num_contexts <= 0 || opts.max_ops_per_context <= 0) {
    res.error = "invalid schedule options";
    return res;
  }
  if (!dfg.is_dag()) {
    res.error = "DFG has a cycle";
    return res;
  }
  const int n = dfg.num_nodes();
  const double budget = opts.chain_budget_frac * opts.clock_period_ns;

  // Priority: the longest downstream PE-delay chain (critical ops first).
  std::vector<double> downstream(static_cast<size_t>(n), 0.0);
  const std::vector<int> topo = dfg.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const int u = *it;
    double best = 0.0;
    for (const int v : dfg.fanout(u))
      best = std::max(best, downstream[static_cast<size_t>(v)]);
    downstream[static_cast<size_t>(u)] = best + node_delay(dfg, u, opts.delays);
  }

  res.context_of.assign(static_cast<size_t>(n), -1);
  std::vector<double> chain(static_cast<size_t>(n), 0.0);  // same-ctx PE-delay
  std::vector<int> unscheduled_preds(static_cast<size_t>(n), 0);
  for (int u = 0; u < n; ++u)
    unscheduled_preds[static_cast<size_t>(u)] =
        static_cast<int>(dfg.fanin(u).size());

  int scheduled = 0;
  for (int c = 0; c < opts.num_contexts && scheduled < n; ++c) {
    int used = 0;
    for (;;) {
      if (used >= opts.max_ops_per_context) break;
      // Find the highest-priority schedulable node for context c.
      int best = -1;
      for (int u = 0; u < n; ++u) {
        if (res.context_of[static_cast<size_t>(u)] >= 0) continue;
        if (unscheduled_preds[static_cast<size_t>(u)] > 0) continue;
        // Chaining feasibility: preds already in context c extend the chain.
        double chain_in = 0.0;
        bool feasible = true;
        for (const int p : dfg.fanin(u)) {
          if (res.context_of[static_cast<size_t>(p)] == c)
            chain_in = std::max(chain_in, chain[static_cast<size_t>(p)]);
        }
        const double my_delay = node_delay(dfg, u, opts.delays);
        if (chain_in + my_delay > budget) feasible = false;
        if (my_delay > budget && chain_in == 0.0)
          feasible = true;  // a single op must fit somewhere; wires get less
        if (!feasible) continue;
        if (best < 0 || downstream[static_cast<size_t>(u)] >
                            downstream[static_cast<size_t>(best)])
          best = u;
      }
      if (best < 0) break;
      const double my_delay = node_delay(dfg, best, opts.delays);
      double chain_in = 0.0;
      for (const int p : dfg.fanin(best)) {
        if (res.context_of[static_cast<size_t>(p)] == c)
          chain_in = std::max(chain_in, chain[static_cast<size_t>(p)]);
      }
      res.context_of[static_cast<size_t>(best)] = c;
      chain[static_cast<size_t>(best)] = chain_in + my_delay;
      ++used;
      ++scheduled;
      res.contexts_used = std::max(res.contexts_used, c + 1);
      for (const int v : dfg.fanout(best))
        --unscheduled_preds[static_cast<size_t>(v)];
    }
  }

  if (scheduled < n) {
    res.error = "design does not fit in " +
                std::to_string(opts.num_contexts) + " contexts of " +
                std::to_string(opts.max_ops_per_context) + " PEs";
    return res;
  }
  res.ok = true;
  return res;
}

int min_contexts(const Dfg& dfg, ScheduleOptions opts, int upper_limit) {
  int lo = std::max(1, dfg.num_nodes() > 0 ? 1 : 0);
  int hi = upper_limit;
  opts.num_contexts = hi;
  if (!list_schedule(dfg, opts).ok) return -1;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    opts.num_contexts = mid;
    if (list_schedule(dfg, opts).ok) hi = mid;
    else lo = mid + 1;
  }
  return lo;
}

Design build_design(const Dfg& dfg, const ScheduleResult& schedule,
                    const Fabric& fabric, int num_contexts) {
  CGRAF_ASSERT(schedule.ok);
  CGRAF_ASSERT(schedule.contexts_used <= num_contexts);
  Design d{fabric, num_contexts, {}, {}};
  d.ops.reserve(static_cast<size_t>(dfg.num_nodes()));
  for (int u = 0; u < dfg.num_nodes(); ++u) {
    const DfgNode& n = dfg.node(u);
    Operation op;
    op.id = u;
    op.kind = n.kind;
    op.bitwidth = n.bitwidth;
    op.context = schedule.context_of[static_cast<size_t>(u)];
    op.name = n.name;
    d.ops.push_back(std::move(op));
  }
  for (const auto& [from, to] : dfg.edges()) d.edges.push_back(Edge{from, to});
  return d;
}

}  // namespace cgraf::hls
