#include "cgrra/floorplan.h"

#include <algorithm>
#include <set>

namespace cgraf {

bool is_valid(const Design& design, const Floorplan& fp, std::string* why) {
  auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };

  if (fp.op_to_pe.size() != design.ops.size())
    return fail("floorplan size does not match op count");
  if (design.num_contexts <= 0) return fail("design has no contexts");

  for (const Operation& op : design.ops) {
    if (op.context < 0 || op.context >= design.num_contexts)
      return fail("op " + std::to_string(op.id) + " has context out of range");
    const int pe = fp.pe_of(op.id);
    if (pe < 0 || pe >= design.fabric.num_pes())
      return fail("op " + std::to_string(op.id) + " bound outside fabric");
  }

  // PE exclusivity within each context.
  std::set<std::pair<int, int>> used;  // (context, pe)
  for (const Operation& op : design.ops) {
    if (!used.insert({op.context, fp.pe_of(op.id)}).second) {
      return fail("context " + std::to_string(op.context) + " maps two ops to PE " +
                  std::to_string(fp.pe_of(op.id)));
    }
  }

  // Edges must respect op ids and never flow backwards in time.
  for (const Edge& e : design.edges) {
    if (e.from < 0 || e.from >= design.num_ops() || e.to < 0 ||
        e.to >= design.num_ops() || e.from == e.to)
      return fail("malformed edge");
    const int cf = design.ops[static_cast<std::size_t>(e.from)].context;
    const int ct = design.ops[static_cast<std::size_t>(e.to)].context;
    if (cf > ct) return fail("edge flows backwards across contexts");
  }

  // Same-context edges must form a DAG (combinational loops are illegal).
  const int n = design.num_ops();
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  int comb_edges = 0;
  for (const Edge& e : design.edges) {
    if (!design.same_context(e)) continue;
    adj[static_cast<std::size_t>(e.from)].push_back(e.to);
    ++indeg[static_cast<std::size_t>(e.to)];
    ++comb_edges;
  }
  std::vector<int> queue;
  for (int i = 0; i < n; ++i)
    if (indeg[static_cast<std::size_t>(i)] == 0) queue.push_back(i);
  int seen = 0;
  while (!queue.empty()) {
    const int u = queue.back();
    queue.pop_back();
    ++seen;
    for (const int v : adj[static_cast<std::size_t>(u)])
      if (--indeg[static_cast<std::size_t>(v)] == 0) queue.push_back(v);
  }
  if (seen != n) return fail("combinational cycle within a context");
  (void)comb_edges;

  return true;
}

}  // namespace cgraf
