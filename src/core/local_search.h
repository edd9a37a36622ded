// Aging-aware shift/swap local search over PE re-bindings — the heuristic
// counterpart of the exact formulation-(3) pipeline.
//
// The search explores the same solution space the MILP does (one op per PE
// per context, frozen ops pinned, candidate-set membership, per-PE stress
// against ST_target, monitored paths within their Eq.-(5) wire budgets) but
// shares no solver code: the only arbiter of feasibility is the independent
// verify::certify_floorplan oracle, called on every new incumbent. The
// internal score is a penalty form of formulation (3): stress overshoot +
// path-budget overshoot (both zero iff the binding is feasible) plus a tiny
// displacement tiebreak matching ObjectiveMode::kMinPerturbation.
//
// Moves are the classic GAP neighborhood: *shift* (rebind one free op to an
// empty candidate PE in its context) and *swap* (exchange the bindings of
// two free ops). Strict-improvement descent with a per-op tabu recency
// list (aspiration on a new global best) and seeded random-kick restarts.
// Single-threaded and bit-reproducible for a fixed seed: every stochastic
// choice flows through util/rng.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "cgrra/design.h"
#include "cgrra/floorplan.h"
#include "core/model_builder.h"
#include "obs/event_log.h"

namespace cgraf::core {

struct LocalSearchOptions {
  std::uint64_t seed = 1;
  // Move attempts per restart (examined, not accepted).
  int max_iters = 2000;
  // Total descent starts: 1 from the base binding + (restarts-1) kicked.
  int restarts = 4;
  double time_limit_s = 1e18;
  // Cooperative cancellation, checked every few iterations; a raised flag
  // ends the search with the best incumbent so far. Not owned — must
  // outlive the search.
  const std::atomic<bool>* cancel = nullptr;
  // Structured solve-event log; one "ls.search" summary record per call.
  obs::EventLog* events = nullptr;
};

struct LocalSearchStats {
  long moves_examined = 0;
  long moves_accepted = 0;
  long shifts_accepted = 0;
  long swaps_accepted = 0;
  long restarts_run = 0;
  // certify_floorplan oracle calls on candidate incumbents, and how many
  // the oracle rejected (a rejection means the internal score model and
  // the certifier disagree — counted, never shipped).
  long oracle_calls = 0;
  long oracle_rejections = 0;
  // Free ops relocated off a slot the rotation step handed to a frozen op
  // before the search could start (see the pre-check in local_search_remap).
  long start_repairs = 0;
  double seconds = 0.0;

  void add(const LocalSearchStats& other);
};

struct LocalSearchResult {
  // A binding meeting every constraint of the spec was found, and the
  // certify_floorplan oracle, which gates every incumbent, agreed.
  bool feasible = false;
  Floorplan floorplan;  // best certified binding; the base when !feasible
  double score = 0.0;       // internal penalty score of `floorplan`
  double max_stress = 0.0;  // max per-PE accumulated stress of `floorplan`
  LocalSearchStats stats;
};

// Incremental search state: the current binding plus per-PE stress, per-path
// delay and displacement aggregates, updated in O(affected paths) per move.
// Exposed (rather than buried in the driver) for the metamorphic move tests
// and the oracle fuzz target, which drive moves directly.
class LsState {
 public:
  // Starts at *spec.base. The base must satisfy per-context exclusivity
  // (asserted); stress and path budgets may be violated — the penalties
  // simply start positive.
  explicit LsState(const RemapModelSpec& spec);

  int num_ops() const { return n_ops_; }
  int num_pes() const { return n_pes_; }
  const Floorplan& floorplan() const { return fp_; }
  int pe_of(int op) const { return fp_.pe_of(op); }

  // score() = kStressW * stress_penalty() + kPathW * path_penalty()
  //         + kDispW * displacement(). Every aggregate underneath is
  // *recomputed from the binding* when a move touches it (never drifted by
  // += deltas), so a move and its inverse restore score() bit-exactly —
  // the metamorphic round-trip tests rely on this.
  double score() const;
  // Sum over PEs of max(0, stress - st_target); 0 when stress is unchecked
  // (negative st_target). Symmetric in the PE stress multiset: relabeling
  // equal-stress PEs leaves it invariant.
  double stress_penalty() const;
  // Sum over monitored paths of max(0, delay - cpd), in ns.
  double path_penalty() const;
  // Total Manhattan displacement from the base binding.
  double displacement() const;
  double max_stress() const;
  // Penalties within certifier-level tolerance of zero.
  bool feasible() const;

  // Legality (not profitability): op free, target PE in the op's candidate
  // set and empty in the op's context. Swaps additionally require both
  // target PEs free-or-partner in the respective contexts.
  bool can_shift(int op, int pe) const;
  bool can_swap(int a, int b) const;

  // Score change the move would cause (no state change), accurate to well
  // under kMinImprove; the driver accepts only deltas below -kMinImprove so
  // an accepted move strictly decreases score().
  double shift_delta(int op, int pe) const;
  double swap_delta(int a, int b) const;

  // Apply a move. CGRAF_ASSERT-aborts on an illegal move — exclusivity and
  // frozen violations are structurally impossible, not merely penalized.
  void shift(int op, int pe);
  void swap_ops(int a, int b);

  // Penalty weights (public for tests asserting score decomposition) and
  // the strict-improvement threshold the driver and fuzz oracle share.
  static constexpr double kStressW = 1e3;
  static constexpr double kPathW = 1e2;
  static constexpr double kDispW = 1e-3;
  static constexpr double kMinImprove = 1e-9;

 private:
  bool candidate_ok(int op, int pe) const;
  // Recompute one PE's accumulated stress from the occupancy table, in
  // fixed context order (value depends only on the binding, not history).
  double pe_stress_from_occ(int pe) const;
  // Path delay with up to two ops hypothetically rebound (-1 = none).
  double path_delay_with(int p, int op_a, int pe_a, int op_b, int pe_b) const;
  double overshoot_stress(double st) const;
  double overshoot_path(double delay_ns) const;
  double op_disp_at(int op, int pe) const;
  void apply_rebind(int op, int pe);

  const RemapModelSpec* spec_ = nullptr;
  const Design* design_ = nullptr;
  int n_ops_ = 0;
  int n_pes_ = 0;
  int n_ctx_ = 0;
  Floorplan fp_;
  std::vector<double> op_stress_;       // per op, cached op_stress()
  std::vector<double> pe_stress_;      // per PE, accumulated (recomputed)
  std::vector<int> occ_;               // [ctx*n_pes+pe] -> op id or -1
  std::vector<double> path_delay_ns_;  // per monitored path
  std::vector<double> op_disp_;        // per op Manhattan displacement
  std::vector<std::vector<int>> op_paths_;  // per op, monitored paths touched
};

// The driver: tabu descent with seeded restarts; every new feasible
// incumbent is certified by verify::certify_floorplan before it may become
// the result. Deterministic for a fixed (spec, opts.seed) regardless of
// machine thread count.
LocalSearchResult local_search_remap(const RemapModelSpec& spec,
                                     const LocalSearchOptions& opts);

}  // namespace cgraf::core
