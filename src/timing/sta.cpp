#include "timing/sta.h"

#include <algorithm>

#include "util/check.h"

namespace cgraf::timing {

CombGraph::CombGraph(const Design& d) : design(&d) {
  const int n = d.num_ops();
  fanout.assign(static_cast<std::size_t>(n), {});
  fanin.assign(static_cast<std::size_t>(n), {});
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (const Edge& e : d.edges) {
    if (!d.same_context(e)) continue;
    fanout[static_cast<std::size_t>(e.from)].push_back(e.to);
    fanin[static_cast<std::size_t>(e.to)].push_back(e.from);
    ++indeg[static_cast<std::size_t>(e.to)];
  }
  topo.reserve(static_cast<std::size_t>(n));
  std::vector<int> queue;
  for (int i = 0; i < n; ++i)
    if (indeg[static_cast<std::size_t>(i)] == 0) queue.push_back(i);
  while (!queue.empty()) {
    const int u = queue.back();
    queue.pop_back();
    topo.push_back(u);
    for (const int v : fanout[static_cast<std::size_t>(u)])
      if (--indeg[static_cast<std::size_t>(v)] == 0) queue.push_back(v);
  }
  CGRAF_ASSERT(static_cast<int>(topo.size()) == n);  // comb cycles are illegal
}

StaResult run_sta(const CombGraph& graph, const Floorplan& fp) {
  const Design& d = *graph.design;
  const int n = d.num_ops();
  StaResult res;
  res.context_cpd_ns.assign(static_cast<std::size_t>(d.num_contexts), 0.0);
  res.arrival_ns.assign(static_cast<std::size_t>(n), 0.0);

  for (const int u : graph.topo) {
    const Operation& op = d.ops[static_cast<std::size_t>(u)];
    double arr = 0.0;
    for (const int p : graph.fanin[static_cast<std::size_t>(u)]) {
      const double wire = d.fabric.wire_delay_ns(
          d.fabric.loc(fp.pe_of(p)), d.fabric.loc(fp.pe_of(u)));
      arr = std::max(arr, res.arrival_ns[static_cast<std::size_t>(p)] + wire);
    }
    arr += op_delay_ns(op, d.fabric.delays());
    res.arrival_ns[static_cast<std::size_t>(u)] = arr;
    auto& ctx_cpd = res.context_cpd_ns[static_cast<std::size_t>(op.context)];
    ctx_cpd = std::max(ctx_cpd, arr);
  }
  res.cpd_ns = 0.0;
  for (const double c : res.context_cpd_ns) res.cpd_ns = std::max(res.cpd_ns, c);
  return res;
}

StaResult run_sta(const Design& design, const Floorplan& fp) {
  return run_sta(CombGraph(design), fp);
}

double path_delay_ns(const Design& design, const Floorplan& fp,
                     const TimingPath& path) {
  CGRAF_ASSERT(!path.ops.empty());
  double delay = 0.0;
  for (std::size_t i = 0; i < path.ops.size(); ++i) {
    const Operation& op = design.ops[static_cast<std::size_t>(path.ops[i])];
    delay += op_delay_ns(op, design.fabric.delays());
    if (i + 1 < path.ops.size()) {
      delay += design.fabric.wire_delay_ns(
          design.fabric.loc(fp.pe_of(path.ops[i])),
          design.fabric.loc(fp.pe_of(path.ops[i + 1])));
    }
  }
  return delay;
}

}  // namespace cgraf::timing
