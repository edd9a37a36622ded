// Branch & bound MILP solver over the revised-simplex LP engine.
//
// Node selection is best-bound with a deepest-first tie-break, which
// degenerates to a depth-first dive on the paper's "ObjFunc: Null"
// feasibility models (every node bound is 0) — exactly the behaviour needed
// to find an integer floorplan quickly or prove that a stress target is
// infeasible.
//
// The search runs on a shared best-first node pool served by num_threads
// workers, each owning a private SimplexEngine clone; see solve_milp below
// for the determinism guarantees.
#pragma once

#include <vector>

#include "milp/model.h"
#include "milp/simplex.h"

namespace cgraf::milp {

struct MipOptions {
  LpOptions lp;
  double time_limit_s = 1e18;
  long max_nodes = 200000;
  // Stop as soon as any integer-feasible point is found (for pure
  // feasibility models such as the paper's "ObjFunc: Null" formulation).
  bool stop_at_first_incumbent = false;
  // Worker threads for the branch & bound search. 0 picks
  // std::thread::hardware_concurrency(); 1 runs the search inline on the
  // calling thread (no workers are spawned). Negative values are a
  // contract violation: solve_milp aborts with a clear message instead of
  // silently falling back to hardware concurrency.
  int num_threads = 0;
  // Structured solve-event log (obs/event_log.h). When set, the search
  // emits bnb.begin/bnb.node/bnb.incumbent/bnb.pool_prune/bnb.end records
  // and hands the sink to every node LP.
  obs::EventLog* events = nullptr;
  // Cooperative cancellation, checked by every worker between nodes and
  // forwarded into node LPs. A cancelled run reports kCancelled unless an
  // incumbent was already found (then kFeasible, like a limit hit).
  const std::atomic<bool>* cancel = nullptr;
};

struct MipResult {
  SolveStatus status = SolveStatus::kNumericalError;
  double obj = 0.0;         // incumbent objective (model sense)
  double best_bound = 0.0;  // proven bound (model sense)
  std::vector<double> x;    // incumbent (empty if none)
  long nodes = 0;
  long lp_iterations = 0;
  double seconds = 0.0;
  int threads_used = 1;
  std::vector<long> nodes_per_thread;  // size threads_used
  LpStageStats lp_stats;               // aggregated over all node LPs

  bool has_solution() const { return !x.empty(); }
};

// Solves the model exactly. Deterministic result semantics: a run that
// proves optimality (status kOptimal) reports the same optimal objective for
// any thread count — only node/iteration counts and which of the co-optimal
// solutions is returned may differ. Runs cut short by stop_at_first_incumbent
// or by limits may legitimately differ across thread counts.
MipResult solve_milp(const Model& model, const MipOptions& opts = {});

}  // namespace cgraf::milp
