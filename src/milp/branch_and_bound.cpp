#include "milp/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <thread>

#include "obs/event_log.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/sync.h"

namespace cgraf::milp {
namespace {

// Integrality tolerance, and the absolute and relative gaps within which a
// node prunes against the incumbent and a finished search reports kOptimal.
constexpr double kIntTol = 1e-6;
constexpr double kAbsGap = 1e-9;
constexpr double kRelGap = 1e-6;

// A bound change relative to the parent node; nodes share ancestry chains.
struct Delta {
  int var;
  double lb, ub;
  std::shared_ptr<const Delta> parent;
};

struct Node {
  std::shared_ptr<const Delta> deltas;
  std::shared_ptr<const std::vector<ColStatus>> warm;
  double bound;  // internal (minimization) bound inherited from the parent
  int depth;
  long parent;  // expansion seq of the parent node (0 for the root), so the
                // event-log analyzer can reconstruct the search tree
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;  // min-bound first
    return a.depth < b.depth;                          // then deepest (dive)
  }
};

// Search state shared by all workers. Every field is annotated with the
// mutex that guards it, so under -Wthread-safety an unlocked access is a
// compile error, not a TSan finding.
struct Shared {
  Mutex mu{"bnb.shared", lock_rank::kBnbShared};
  CondVar cv;
  std::priority_queue<Node, std::vector<Node>, NodeOrder> open
      CGRAF_GUARDED_BY(mu);
  int active CGRAF_GUARDED_BY(mu) = 0;  // workers currently expanding a node
  bool stop CGRAF_GUARDED_BY(mu) = false;
  // Which limit fired, if any.
  SolveStatus limit_hit CGRAF_GUARDED_BY(mu) = SolveStatus::kOptimal;
  bool root_unbounded CGRAF_GUARDED_BY(mu) = false;
  bool proof_incomplete CGRAF_GUARDED_BY(mu) = false;
  // The first node LP that stopped on its own limit (iterations, time or
  // cancel); kOptimal while none has.
  SolveStatus node_lp_limit CGRAF_GUARDED_BY(mu) = SolveStatus::kOptimal;
  double incumbent_internal CGRAF_GUARDED_BY(mu) = kInf;
  std::vector<double> incumbent_x CGRAF_GUARDED_BY(mu);
  // Min bound among pruned-by-gap nodes.
  double exhausted_bound CGRAF_GUARDED_BY(mu) = kInf;
  long nodes CGRAF_GUARDED_BY(mu) = 0;
  long lp_iterations CGRAF_GUARDED_BY(mu) = 0;
  LpStageStats lp_stats CGRAF_GUARDED_BY(mu);
};

}  // namespace

MipResult solve_milp(const Model& model, const MipOptions& opts) {
  const double t_start = now_seconds();

  CGRAF_ASSERT(opts.num_threads >= 0 &&
               "MipOptions::num_threads must be >= 0 (0 = all hardware "
               "threads)");
  const int threads = [&] {
    int k = opts.num_threads;
    if (k == 0) k = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, k);
  }();

  // Solve-event log: MipOptions::events enables the whole record family.
  obs::EventLog* const events = opts.events;
  obs::Event(events, "bnb.begin")
      .arg("vars", static_cast<long>(model.num_vars()))
      .arg("rows", static_cast<long>(model.num_constraints()))
      .arg("threads", static_cast<long>(threads));

  MipResult res;
  res.threads_used = threads;
  res.nodes_per_thread.assign(static_cast<size_t>(threads), 0);

  const int n = model.num_vars();
  const double sign = model.sense() == Sense::kMinimize ? 1.0 : -1.0;

  std::vector<int> int_vars;
  for (int j = 0; j < n; ++j) {
    if (model.var(j).type != VarType::kContinuous) int_vars.push_back(j);
  }

  // Prototype engine; each worker solves on a private copy so the (possibly
  // large) constraint matrix is standardized only once.
  const SimplexEngine proto(model, opts.lp);

  // Root bounds, with integer bounds pre-rounded inward.
  std::vector<double> root_lb(proto.model_lb());
  std::vector<double> root_ub(proto.model_ub());
  for (const int j : int_vars) {
    root_lb[static_cast<size_t>(j)] =
        std::ceil(root_lb[static_cast<size_t>(j)] - kIntTol);
    root_ub[static_cast<size_t>(j)] =
        std::floor(root_ub[static_cast<size_t>(j)] + kIntTol);
    if (root_lb[static_cast<size_t>(j)] > root_ub[static_cast<size_t>(j)]) {
      res.status = SolveStatus::kInfeasible;
      res.seconds = now_seconds() - t_start;
      return res;
    }
  }

  Shared sh;
  {
    MutexLock lk(&sh.mu);
    sh.open.push(Node{nullptr, nullptr, -kInf, 0, 0});
  }

  // Rounds integer variables of an LP point; returns the internal objective
  // when exactly feasible, or nullopt-style (false) otherwise. Pure; called
  // outside the lock.
  auto round_candidate = [&](const std::vector<double>& x,
                             std::vector<double>& xi, double& internal) {
    xi = x;
    for (const int j : int_vars)
      xi[static_cast<size_t>(j)] = std::round(xi[static_cast<size_t>(j)]);
    if (model.max_violation(xi) > 10 * kLpFeasTol) return false;
    internal = sign * model.objective_value(xi);
    return true;
  };

  auto worker = [&](int tid) {
    SimplexEngine engine = proto;
    std::vector<double> lb, ub;
    std::vector<double> cand_x;
    long my_nodes = 0;

    auto build_bounds = [&](const Node& node) {
      lb = root_lb;
      ub = root_ub;
      for (const Delta* d = node.deltas.get(); d != nullptr;
           d = d->parent.get()) {
        lb[static_cast<size_t>(d->var)] =
            std::max(lb[static_cast<size_t>(d->var)], d->lb);
        ub[static_cast<size_t>(d->var)] =
            std::min(ub[static_cast<size_t>(d->var)], d->ub);
      }
    };

    MutexLock lk(&sh.mu);
    while (true) {
      while (!(sh.stop || !sh.open.empty() || sh.active == 0))
        sh.cv.wait(sh.mu);
      if (sh.stop || (sh.open.empty() && sh.active == 0)) break;
      if (sh.open.empty()) continue;  // spurious wake with workers active

      if (sh.nodes >= opts.max_nodes) {
        sh.limit_hit = SolveStatus::kNodeLimit;
        sh.stop = true;
        sh.cv.notify_all();
        break;
      }
      if (now_seconds() - t_start > opts.time_limit_s) {
        sh.limit_hit = SolveStatus::kTimeLimit;
        sh.stop = true;
        sh.cv.notify_all();
        break;
      }
      if (opts.cancel != nullptr &&
          opts.cancel->load(std::memory_order_relaxed)) {
        sh.limit_hit = SolveStatus::kCancelled;
        sh.stop = true;
        sh.cv.notify_all();
        break;
      }

      Node node = sh.open.top();
      sh.open.pop();
      if (node.bound >= sh.incumbent_internal - kAbsGap) {
        // Best-first pool: every node still queued is at least as bad, and
        // the incumbent only improves, so the whole pool prunes with it.
        // In-flight workers may still push better-bounded children.
        sh.exhausted_bound = std::min(sh.exhausted_bound, node.bound);
        const long dropped = 1 + static_cast<long>(sh.open.size());
        while (!sh.open.empty()) sh.open.pop();
        obs::Event(events, "bnb.pool_prune")
            .arg("dropped", dropped)
            .arg("bound", node.bound);
        sh.cv.notify_all();
        continue;
      }
      ++sh.nodes;
      const long node_seq = sh.nodes;
      const bool have_incumbent = sh.incumbent_internal < kInf;
      const double incumbent_at_pop = sh.incumbent_internal;
      ++sh.active;
      lk.unlock();

      ++my_nodes;
      build_bounds(node);

      LpOptions lp_opts = opts.lp;
      const double remaining = opts.time_limit_s - (now_seconds() - t_start);
      lp_opts.time_limit_s =
          std::min(lp_opts.time_limit_s, std::max(0.0, remaining));
      lp_opts.events = events;  // node LPs feed the same solve-event log
      if (lp_opts.cancel == nullptr) lp_opts.cancel = opts.cancel;
      engine.set_options(lp_opts);
      LpResult lp = engine.solve(lb, ub, node.warm.get());

      // Everything after the LP is cheap; classify the node and prepare any
      // incumbent candidate / children outside the lock, then fold in.
      const double node_bound = sign * lp.obj;
      int branch_var = -1;
      double branch_val = 0.0;
      bool cand_ok = false;
      double cand_internal = kInf;

      if (lp.status == SolveStatus::kOptimal) {
        // Find the most fractional integer variable.
        double best_frac_dist = kIntTol;
        for (const int j : int_vars) {
          const double v = lp.x[static_cast<size_t>(j)];
          const double dist = std::abs(v - std::round(v));
          if (dist > best_frac_dist) {
            // prefer the variable closest to 0.5 fractionality
            const double score = 0.5 - std::abs(v - std::floor(v) - 0.5);
            const double best_score =
                branch_var < 0 ? -1.0
                               : 0.5 - std::abs(branch_val -
                                                std::floor(branch_val) - 0.5);
            if (score > best_score) {
              branch_var = j;
              branch_val = v;
            }
          }
        }
        // Integral point, or the cheap rounding heuristic on early /
        // post-incumbent fractional nodes: try to round into an incumbent.
        const bool prunable = node_bound >= incumbent_at_pop - kAbsGap;
        if (!prunable &&
            (branch_var < 0 || have_incumbent || node_seq <= 64)) {
          cand_ok = round_candidate(lp.x, cand_x, cand_internal);
        }
      }

      lk.lock();
      --sh.active;
      sh.lp_iterations += lp.iterations;
      sh.lp_stats.add(lp.stats);
      res.nodes_per_thread[static_cast<size_t>(tid)] = my_nodes;

      // Exactly one bnb.node record per counted node (sh.nodes), whatever
      // its fate — the analyzer's node total must match MipResult::nodes.
      auto emit_node = [&](const char* action) {
        obs::Event ev(events, "bnb.node");
        if (ev.active()) {
          ev.arg("seq", node_seq)
              .arg("parent", node.parent)
              .arg("depth", node.depth)
              .arg("bound", node_bound)
              .arg("lp_status", to_string(lp.status))
              .arg("lp_iters", lp.iterations)
              .arg("warm_used", lp.warm_used)
              .arg("dual_used", lp.dual_used)
              .arg("action", action)
              .arg("branch_var", branch_var);
        }
      };

      if (lp.status == SolveStatus::kInfeasible) {
        emit_node("infeasible");
        sh.cv.notify_all();
        continue;
      }
      if (lp.status == SolveStatus::kUnbounded) {
        if (node.depth == 0 && int_vars.empty()) {
          sh.root_unbounded = true;
          sh.stop = true;
        } else {
          // Unbounded relaxation of a node with integers: cannot bound;
          // treat the proof as incomplete and keep searching siblings.
          sh.proof_incomplete = true;
        }
        emit_node("unbounded");
        sh.cv.notify_all();
        continue;
      }
      if (lp.status != SolveStatus::kOptimal) {
        sh.proof_incomplete = true;
        if (sh.node_lp_limit == SolveStatus::kOptimal &&
            (lp.status == SolveStatus::kIterLimit ||
             lp.status == SolveStatus::kTimeLimit ||
             lp.status == SolveStatus::kCancelled))
          sh.node_lp_limit = lp.status;
        emit_node("lp_limit");
        sh.cv.notify_all();
        continue;
      }

      if (cand_ok && cand_internal < sh.incumbent_internal - 1e-12) {
        sh.incumbent_internal = cand_internal;
        sh.incumbent_x = cand_x;
        obs::Event(events, "bnb.incumbent")
            .arg("seq", node_seq)
            .arg("obj", sign * cand_internal);
        if (opts.stop_at_first_incumbent) {
          sh.limit_hit = SolveStatus::kFeasible;
          sh.stop = true;
          emit_node(branch_var < 0 ? "integral" : "stop");
          sh.cv.notify_all();
          continue;
        }
      }

      if (node_bound >= sh.incumbent_internal - kAbsGap ||
          branch_var < 0) {
        emit_node(branch_var < 0 ? "integral" : "prune");
        sh.cv.notify_all();
        continue;
      }
      emit_node("branch");

      auto warm =
          std::make_shared<std::vector<ColStatus>>(std::move(lp.basis));
      const double down = std::floor(branch_val);
      auto mk_delta = [&](double dlb, double dub) {
        auto d = std::make_shared<Delta>();
        d->var = branch_var;
        d->lb = dlb;
        d->ub = dub;
        d->parent = node.deltas;
        return d;
      };
      // Push the child on the side the LP value leans toward last so the
      // (bound, depth) order dives into it first on ties.
      const bool lean_up = (branch_val - down) > 0.5;
      Node child_down{mk_delta(-kInf, down), warm, node_bound,
                      node.depth + 1, node_seq};
      Node child_up{mk_delta(down + 1.0, kInf), warm, node_bound,
                    node.depth + 1, node_seq};
      if (lean_up) {
        sh.open.push(child_down);
        sh.open.push(child_up);
      } else {
        sh.open.push(child_up);
        sh.open.push(child_down);
      }
      sh.cv.notify_all();
    }
    sh.cv.notify_all();
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads) - 1);
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : pool) t.join();

  // --- Assemble the result. The workers are joined, so the lock is
  // uncontended; holding it anyway keeps the guarded-field accesses below
  // visible to the thread-safety analysis. It is released on every return.
  MutexLock lk(&sh.mu);
  res.seconds = now_seconds() - t_start;
  res.nodes = sh.nodes;
  res.lp_iterations = sh.lp_iterations;
  res.lp_stats = sh.lp_stats;

  obs::Event(events, "bnb.end")
      .arg("nodes", sh.nodes)
      .arg("lp_iterations", sh.lp_iterations)
      .arg("incumbent", sh.incumbent_internal < kInf)
      .arg("seconds", res.seconds);

  if (sh.root_unbounded) {
    res.status = SolveStatus::kUnbounded;
    return res;
  }

  double open_bound = sh.exhausted_bound;
  if (!sh.open.empty()) open_bound = std::min(open_bound, sh.open.top().bound);
  const bool exhausted =
      sh.open.empty() && sh.limit_hit == SolveStatus::kOptimal;

  if (!sh.incumbent_x.empty()) {
    res.x = sh.incumbent_x;
    res.obj = sign * sh.incumbent_internal;
    const double bb = exhausted
                          ? sh.incumbent_internal
                          : std::min(open_bound, sh.incumbent_internal);
    res.best_bound = sign * bb;
    const double gap = sh.incumbent_internal - bb;
    const bool gap_closed =
        gap <= kAbsGap ||
        gap <= kRelGap * std::max(1.0, std::abs(sh.incumbent_internal));
    res.status = (exhausted && !sh.proof_incomplete) || gap_closed
                     ? SolveStatus::kOptimal
                     : SolveStatus::kFeasible;
    return res;
  }

  res.best_bound = sign * open_bound;
  if (exhausted && !sh.proof_incomplete) {
    res.status = SolveStatus::kInfeasible;
  } else if (sh.limit_hit != SolveStatus::kOptimal) {
    res.status = sh.limit_hit;
  } else if (sh.node_lp_limit != SolveStatus::kOptimal) {
    res.status = sh.node_lp_limit;
  } else {
    res.status = SolveStatus::kNumericalError;
  }
  return res;
}

}  // namespace cgraf::milp
