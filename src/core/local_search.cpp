#include "core/local_search.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/clock.h"
#include "util/geometry.h"
#include "util/rng.h"
#include "verify/certify.h"

namespace cgraf::core {

void LocalSearchStats::add(const LocalSearchStats& other) {
  moves_examined += other.moves_examined;
  moves_accepted += other.moves_accepted;
  shifts_accepted += other.shifts_accepted;
  swaps_accepted += other.swaps_accepted;
  restarts_run += other.restarts_run;
  oracle_calls += other.oracle_calls;
  oracle_rejections += other.oracle_rejections;
  start_repairs += other.start_repairs;
  seconds += other.seconds;
}

// --- LsState -------------------------------------------------------------

LsState::LsState(const RemapModelSpec& spec) : spec_(&spec) {
  CGRAF_ASSERT(spec.design != nullptr && spec.base != nullptr);
  design_ = spec.design;
  n_ops_ = design_->num_ops();
  n_pes_ = design_->fabric.num_pes();
  n_ctx_ = design_->num_contexts;
  fp_ = *spec.base;
  CGRAF_ASSERT(static_cast<int>(fp_.op_to_pe.size()) == n_ops_);
  CGRAF_ASSERT(spec.frozen.empty() ||
               static_cast<int>(spec.frozen.size()) == n_ops_);
  CGRAF_ASSERT(spec.candidates.empty() ||
               static_cast<int>(spec.candidates.size()) == n_ops_);

  op_stress_.resize(static_cast<std::size_t>(n_ops_));
  for (int op = 0; op < n_ops_; ++op) {
    op_stress_[static_cast<std::size_t>(op)] =
        op_stress(design_->ops[static_cast<std::size_t>(op)], design_->fabric);
  }

  occ_.assign(static_cast<std::size_t>(n_ctx_) *
                  static_cast<std::size_t>(n_pes_),
              -1);
  for (int op = 0; op < n_ops_; ++op) {
    const int pe = fp_.pe_of(op);
    CGRAF_ASSERT(pe >= 0 && pe < n_pes_);
    const int ctx = design_->ops[static_cast<std::size_t>(op)].context;
    CGRAF_ASSERT(ctx >= 0 && ctx < n_ctx_);
    const std::size_t slot =
        static_cast<std::size_t>(ctx) * static_cast<std::size_t>(n_pes_) +
        static_cast<std::size_t>(pe);
    CGRAF_ASSERT(occ_[slot] < 0 && "base binding violates exclusivity");
    occ_[slot] = op;
  }

  pe_stress_.resize(static_cast<std::size_t>(n_pes_));
  for (int pe = 0; pe < n_pes_; ++pe)
    pe_stress_[static_cast<std::size_t>(pe)] = pe_stress_from_occ(pe);

  op_disp_.assign(static_cast<std::size_t>(n_ops_), 0.0);
  for (int op = 0; op < n_ops_; ++op)
    op_disp_[static_cast<std::size_t>(op)] = op_disp_at(op, fp_.pe_of(op));

  op_paths_.assign(static_cast<std::size_t>(n_ops_), {});
  if (spec.monitored != nullptr) {
    path_delay_ns_.resize(spec.monitored->size());
    for (std::size_t p = 0; p < spec.monitored->size(); ++p) {
      const timing::TimingPath& path = (*spec.monitored)[p];
      for (const int op : path.ops) {
        CGRAF_ASSERT(op >= 0 && op < n_ops_);
        std::vector<int>& touched = op_paths_[static_cast<std::size_t>(op)];
        if (touched.empty() || touched.back() != static_cast<int>(p))
          touched.push_back(static_cast<int>(p));
      }
      path_delay_ns_[p] = path_delay_with(static_cast<int>(p), -1, -1, -1, -1);
    }
  }
}

double LsState::pe_stress_from_occ(int pe) const {
  double st = 0.0;
  for (int ctx = 0; ctx < n_ctx_; ++ctx) {
    const int op = occ_[static_cast<std::size_t>(ctx) *
                            static_cast<std::size_t>(n_pes_) +
                        static_cast<std::size_t>(pe)];
    if (op >= 0) st += op_stress_[static_cast<std::size_t>(op)];
  }
  return st;
}

double LsState::path_delay_with(int p, int op_a, int pe_a, int op_b,
                                int pe_b) const {
  const timing::TimingPath& path = (*spec_->monitored)[
      static_cast<std::size_t>(p)];
  const Fabric& fabric = design_->fabric;
  auto pe_at = [&](int op) {
    if (op == op_a) return pe_a;
    if (op == op_b) return pe_b;
    return fp_.pe_of(op);
  };
  double delay = 0.0;
  for (std::size_t i = 0; i < path.ops.size(); ++i) {
    delay += op_delay_ns(design_->ops[static_cast<std::size_t>(path.ops[i])],
                         fabric.delays());
    if (i + 1 < path.ops.size()) {
      delay += fabric.wire_delay_ns(fabric.loc(pe_at(path.ops[i])),
                                    fabric.loc(pe_at(path.ops[i + 1])));
    }
  }
  return delay;
}

double LsState::overshoot_stress(double st) const {
  if (spec_->st_target < 0.0) return 0.0;
  return std::max(0.0, st - spec_->st_target);
}

double LsState::overshoot_path(double delay_ns) const {
  if (spec_->monitored == nullptr || spec_->cpd_ns <= 0.0) return 0.0;
  return std::max(0.0, delay_ns - spec_->cpd_ns);
}

double LsState::op_disp_at(int op, int pe) const {
  const Fabric& fabric = design_->fabric;
  return static_cast<double>(manhattan(
      fabric.loc(pe), fabric.loc(spec_->base->pe_of(op))));
}

double LsState::stress_penalty() const {
  double pen = 0.0;
  for (int pe = 0; pe < n_pes_; ++pe)
    pen += overshoot_stress(pe_stress_[static_cast<std::size_t>(pe)]);
  return pen;
}

double LsState::path_penalty() const {
  double pen = 0.0;
  for (const double d : path_delay_ns_) pen += overshoot_path(d);
  return pen;
}

double LsState::displacement() const {
  double disp = 0.0;
  for (const double d : op_disp_) disp += d;
  return disp;
}

double LsState::max_stress() const {
  double mx = 0.0;
  for (const double st : pe_stress_) mx = std::max(mx, st);
  return mx;
}

double LsState::score() const {
  return kStressW * stress_penalty() + kPathW * path_penalty() +
         kDispW * displacement();
}

bool LsState::feasible() const {
  // The certifier's own tolerances are tighter than these; the oracle call
  // on acceptance is what actually gates the result.
  return stress_penalty() <= 1e-9 && path_penalty() <= 1e-9;
}

bool LsState::candidate_ok(int op, int pe) const {
  if (spec_->candidates.empty()) return true;
  const std::vector<int>& cand =
      spec_->candidates[static_cast<std::size_t>(op)];
  return std::find(cand.begin(), cand.end(), pe) != cand.end();
}

bool LsState::can_shift(int op, int pe) const {
  if (op < 0 || op >= n_ops_ || pe < 0 || pe >= n_pes_) return false;
  if (!spec_->frozen.empty() && spec_->frozen[static_cast<std::size_t>(op)])
    return false;
  if (pe == fp_.pe_of(op)) return false;
  if (!candidate_ok(op, pe)) return false;
  const int ctx = design_->ops[static_cast<std::size_t>(op)].context;
  return occ_[static_cast<std::size_t>(ctx) *
                  static_cast<std::size_t>(n_pes_) +
              static_cast<std::size_t>(pe)] < 0;
}

bool LsState::can_swap(int a, int b) const {
  if (a < 0 || a >= n_ops_ || b < 0 || b >= n_ops_ || a == b) return false;
  if (!spec_->frozen.empty() &&
      (spec_->frozen[static_cast<std::size_t>(a)] ||
       spec_->frozen[static_cast<std::size_t>(b)]))
    return false;
  const int pe_a = fp_.pe_of(a);
  const int pe_b = fp_.pe_of(b);
  if (pe_a == pe_b) return false;  // a swap in place is a no-op
  if (!candidate_ok(a, pe_b) || !candidate_ok(b, pe_a)) return false;
  const int ctx_a = design_->ops[static_cast<std::size_t>(a)].context;
  const int ctx_b = design_->ops[static_cast<std::size_t>(b)].context;
  const int occ_ab = occ_[static_cast<std::size_t>(ctx_a) *
                              static_cast<std::size_t>(n_pes_) +
                          static_cast<std::size_t>(pe_b)];
  const int occ_ba = occ_[static_cast<std::size_t>(ctx_b) *
                              static_cast<std::size_t>(n_pes_) +
                          static_cast<std::size_t>(pe_a)];
  return (occ_ab < 0 || occ_ab == b) && (occ_ba < 0 || occ_ba == a);
}

double LsState::shift_delta(int op, int pe) const {
  const int from = fp_.pe_of(op);
  const double s = op_stress_[static_cast<std::size_t>(op)];
  const double st_from = pe_stress_[static_cast<std::size_t>(from)];
  const double st_to = pe_stress_[static_cast<std::size_t>(pe)];
  double delta = kStressW * (overshoot_stress(st_from - s) -
                             overshoot_stress(st_from) +
                             overshoot_stress(st_to + s) -
                             overshoot_stress(st_to));
  for (const int p : op_paths_[static_cast<std::size_t>(op)]) {
    delta += kPathW *
             (overshoot_path(path_delay_with(p, op, pe, -1, -1)) -
              overshoot_path(path_delay_ns_[static_cast<std::size_t>(p)]));
  }
  delta += kDispW *
           (op_disp_at(op, pe) - op_disp_[static_cast<std::size_t>(op)]);
  return delta;
}

double LsState::swap_delta(int a, int b) const {
  const int pe_a = fp_.pe_of(a);
  const int pe_b = fp_.pe_of(b);
  const double s_a = op_stress_[static_cast<std::size_t>(a)];
  const double s_b = op_stress_[static_cast<std::size_t>(b)];
  const double st_a = pe_stress_[static_cast<std::size_t>(pe_a)];
  const double st_b = pe_stress_[static_cast<std::size_t>(pe_b)];
  double delta = kStressW * (overshoot_stress(st_a - s_a + s_b) -
                             overshoot_stress(st_a) +
                             overshoot_stress(st_b - s_b + s_a) -
                             overshoot_stress(st_b));
  // Union of the two ops' monitored paths, counted once each.
  const std::vector<int>& pa = op_paths_[static_cast<std::size_t>(a)];
  const std::vector<int>& pb = op_paths_[static_cast<std::size_t>(b)];
  auto touched_by_a = [&](int p) {
    return std::find(pa.begin(), pa.end(), p) != pa.end();
  };
  auto path_term = [&](int p) {
    return kPathW *
           (overshoot_path(path_delay_with(p, a, pe_b, b, pe_a)) -
            overshoot_path(path_delay_ns_[static_cast<std::size_t>(p)]));
  };
  for (const int p : pa) delta += path_term(p);
  for (const int p : pb) {
    if (!touched_by_a(p)) delta += path_term(p);
  }
  delta += kDispW * (op_disp_at(a, pe_b) -
                     op_disp_[static_cast<std::size_t>(a)] +
                     op_disp_at(b, pe_a) -
                     op_disp_[static_cast<std::size_t>(b)]);
  return delta;
}

void LsState::apply_rebind(int op, int pe) {
  const int from = fp_.pe_of(op);
  const int ctx = design_->ops[static_cast<std::size_t>(op)].context;
  const std::size_t row =
      static_cast<std::size_t>(ctx) * static_cast<std::size_t>(n_pes_);
  CGRAF_ASSERT(occ_[row + static_cast<std::size_t>(from)] == op);
  CGRAF_ASSERT(occ_[row + static_cast<std::size_t>(pe)] < 0);
  occ_[row + static_cast<std::size_t>(from)] = -1;
  occ_[row + static_cast<std::size_t>(pe)] = op;
  fp_.op_to_pe[static_cast<std::size_t>(op)] = pe;
  pe_stress_[static_cast<std::size_t>(from)] = pe_stress_from_occ(from);
  pe_stress_[static_cast<std::size_t>(pe)] = pe_stress_from_occ(pe);
  op_disp_[static_cast<std::size_t>(op)] = op_disp_at(op, pe);
  for (const int p : op_paths_[static_cast<std::size_t>(op)]) {
    path_delay_ns_[static_cast<std::size_t>(p)] =
        path_delay_with(p, -1, -1, -1, -1);
  }
}

void LsState::shift(int op, int pe) {
  CGRAF_ASSERT(can_shift(op, pe));
  apply_rebind(op, pe);
}

void LsState::swap_ops(int a, int b) {
  CGRAF_ASSERT(can_swap(a, b));
  const int pe_a = fp_.pe_of(a);
  const int pe_b = fp_.pe_of(b);
  const int ctx_a = design_->ops[static_cast<std::size_t>(a)].context;
  const int ctx_b = design_->ops[static_cast<std::size_t>(b)].context;
  auto slot = [&](int ctx, int pe) -> int& {
    return occ_[static_cast<std::size_t>(ctx) *
                    static_cast<std::size_t>(n_pes_) +
                static_cast<std::size_t>(pe)];
  };
  CGRAF_ASSERT(slot(ctx_a, pe_a) == a && slot(ctx_b, pe_b) == b);
  // Vacate both slots first so the cross-bindings never collide (a and b
  // may share a context).
  slot(ctx_a, pe_a) = -1;
  slot(ctx_b, pe_b) = -1;
  CGRAF_ASSERT(slot(ctx_a, pe_b) < 0 && slot(ctx_b, pe_a) < 0);
  slot(ctx_a, pe_b) = a;
  slot(ctx_b, pe_a) = b;
  fp_.op_to_pe[static_cast<std::size_t>(a)] = pe_b;
  fp_.op_to_pe[static_cast<std::size_t>(b)] = pe_a;
  pe_stress_[static_cast<std::size_t>(pe_a)] = pe_stress_from_occ(pe_a);
  pe_stress_[static_cast<std::size_t>(pe_b)] = pe_stress_from_occ(pe_b);
  op_disp_[static_cast<std::size_t>(a)] = op_disp_at(a, pe_b);
  op_disp_[static_cast<std::size_t>(b)] = op_disp_at(b, pe_a);
  const std::vector<int>& pa = op_paths_[static_cast<std::size_t>(a)];
  for (const int p : pa) {
    path_delay_ns_[static_cast<std::size_t>(p)] =
        path_delay_with(p, -1, -1, -1, -1);
  }
  for (const int p : op_paths_[static_cast<std::size_t>(b)]) {
    if (std::find(pa.begin(), pa.end(), p) == pa.end()) {
      path_delay_ns_[static_cast<std::size_t>(p)] =
          path_delay_with(p, -1, -1, -1, -1);
    }
  }
}

// --- Driver --------------------------------------------------------------

namespace {

// A move touching an op accepted fewer than this many iterations ago is tabu
// unless it improves on the best score seen (aspiration).
constexpr int kTabuTenure = 16;

// Deterministic per-restart stream: splitmix-style mix of seed and index.
std::uint64_t mix_seed(std::uint64_t seed, int restart) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(restart) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

LocalSearchResult local_search_remap(const RemapModelSpec& spec,
                                     const LocalSearchOptions& opts) {
  const double t_start = now_seconds();
  LocalSearchResult res;
  CGRAF_ASSERT(spec.design != nullptr && spec.base != nullptr);
  res.floorplan = *spec.base;

  const Design& design = *spec.design;
  const int n_ops = design.num_ops();
  const int n_pes = design.fabric.num_pes();

  // Structural pre-check: the occupancy table needs a base that satisfies
  // per-context exclusivity. A rotated base legitimately violates it — the
  // rotation step relocates only the frozen critical-path group, so a free
  // op can be left sitting on a slot a frozen op rotated onto. Those free
  // ops are repaired onto a free candidate PE before the search starts;
  // any other violation (size/range mismatch, frozen-frozen overlap, no
  // free slot to repair into) reports cleanly — fuzzed callers reach this.
  Floorplan start = *spec.base;
  {
    if (static_cast<int>(start.op_to_pe.size()) != n_ops) return res;
    std::vector<int> seen(static_cast<std::size_t>(design.num_contexts) *
                              static_cast<std::size_t>(n_pes),
                          -1);
    auto slot_of = [&](int ctx, int pe) -> int& {
      return seen[static_cast<std::size_t>(ctx) *
                      static_cast<std::size_t>(n_pes) +
                  static_cast<std::size_t>(pe)];
    };
    auto is_frozen = [&](int op) {
      return !spec.frozen.empty() && spec.frozen[static_cast<std::size_t>(op)];
    };
    std::vector<int> displaced;
    for (int pass = 0; pass < 2; ++pass) {
      for (int op = 0; op < n_ops; ++op) {
        if ((pass == 0) != is_frozen(op)) continue;
        const int pe = start.pe_of(op);
        const int ctx = design.ops[static_cast<std::size_t>(op)].context;
        if (pe < 0 || pe >= n_pes || ctx < 0 || ctx >= design.num_contexts)
          return res;
        int& slot = slot_of(ctx, pe);
        if (slot >= 0) {
          // Only a free op bumped by a pinned frozen op is repairable; any
          // other overlap (frozen-frozen, free-free) is a broken base.
          if (is_frozen(op) || !is_frozen(slot)) return res;
          displaced.push_back(op);
          continue;
        }
        slot = op;
      }
    }
    for (const int op : displaced) {
      const int ctx = design.ops[static_cast<std::size_t>(op)].context;
      int moved_to = -1;
      if (!spec.candidates.empty()) {
        for (const int pe : spec.candidates[static_cast<std::size_t>(op)]) {
          if (pe < 0 || pe >= n_pes || slot_of(ctx, pe) >= 0) continue;
          moved_to = pe;
          break;
        }
      } else {
        for (int pe = 0; pe < n_pes && moved_to < 0; ++pe)
          if (slot_of(ctx, pe) < 0) moved_to = pe;
      }
      if (moved_to < 0) return res;
      start.op_to_pe[static_cast<std::size_t>(op)] = moved_to;
      slot_of(ctx, moved_to) = op;
      ++res.stats.start_repairs;
    }
  }
  // The search starts from the repaired binding; certification and the
  // displacement tie-break both measure against it.
  RemapModelSpec start_spec = spec;
  start_spec.base = &start;

  std::vector<int> free_ops;
  for (int op = 0; op < n_ops; ++op) {
    if (spec.frozen.empty() || !spec.frozen[static_cast<std::size_t>(op)])
      free_ops.push_back(op);
  }

  verify::FloorplanSpec fspec;
  fspec.design = spec.design;
  fspec.reference = &start;
  fspec.frozen = spec.frozen;
  fspec.st_target = spec.st_target;
  fspec.monitored = spec.monitored;
  fspec.cpd_ns = spec.cpd_ns;

  double best_score = 0.0;
  bool have_best = false;
  // The oracle: a candidate incumbent counts only if the independent
  // certifier agrees. A rejection means the internal score model disagrees
  // with the certifier — recorded, never shipped.
  auto try_incumbent = [&](const LsState& state, double cur_score) {
    if (!state.feasible()) return;
    if (have_best && cur_score >= best_score - LsState::kMinImprove) return;
    ++res.stats.oracle_calls;
    const verify::Certificate cert =
        verify::certify_floorplan(fspec, state.floorplan());
    if (!cert.ok) {
      ++res.stats.oracle_rejections;
      return;
    }
    have_best = true;
    best_score = cur_score;
    res.feasible = true;
    res.floorplan = state.floorplan();
    res.score = cur_score;
    res.max_stress = state.max_stress();
  };

  bool stop = false;
  auto should_stop = [&] {
    if (now_seconds() - t_start > opts.time_limit_s) return true;
    return opts.cancel != nullptr &&
           opts.cancel->load(std::memory_order_relaxed);
  };

  const int restarts = std::max(1, opts.restarts);
  for (int r = 0; r < restarts && !stop && !free_ops.empty(); ++r) {
    ++res.stats.restarts_run;
    Rng rng(mix_seed(opts.seed, r));
    LsState state(start_spec);

    // Sample a random legal move; returns false when none was found within
    // the attempt budget (dense bindings can have no legal shift at all).
    auto sample_shift = [&](int& op, int& pe) {
      for (int t = 0; t < 16; ++t) {
        op = free_ops[static_cast<std::size_t>(
            rng.next_below(free_ops.size()))];
        if (!spec.candidates.empty()) {
          const std::vector<int>& cand =
              spec.candidates[static_cast<std::size_t>(op)];
          if (cand.empty()) continue;
          pe = cand[static_cast<std::size_t>(rng.next_below(cand.size()))];
        } else {
          pe = static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(n_pes)));
        }
        if (state.can_shift(op, pe)) return true;
      }
      return false;
    };
    auto sample_swap = [&](int& a, int& b) {
      if (free_ops.size() < 2) return false;
      for (int t = 0; t < 16; ++t) {
        a = free_ops[static_cast<std::size_t>(
            rng.next_below(free_ops.size()))];
        b = free_ops[static_cast<std::size_t>(
            rng.next_below(free_ops.size()))];
        if (state.can_swap(a, b)) return true;
      }
      return false;
    };

    // Restart kick: walk away from the base with a few random legal moves,
    // ignoring the score (not counted as accepts). Restart 0 starts clean.
    if (r > 0) {
      const int kicks = 2 + 2 * r;
      for (int k = 0; k < kicks; ++k) {
        int a = -1, b = -1;
        if (rng.next_bool(0.5) && sample_shift(a, b)) state.shift(a, b);
        else if (sample_swap(a, b)) state.swap_ops(a, b);
      }
    }

    double cur_score = state.score();
    try_incumbent(state, cur_score);

    // Tabu recency: iteration of the last accepted move touching each op.
    std::vector<long> last_touch(static_cast<std::size_t>(n_ops),
                                 -static_cast<long>(kTabuTenure) - 1);
    for (long iter = 0; iter < opts.max_iters; ++iter) {
      if ((iter & 63) == 0 && should_stop()) {
        stop = true;
        break;
      }
      ++res.stats.moves_examined;
      auto tabu = [&](int op) {
        return iter - last_touch[static_cast<std::size_t>(op)] <=
               kTabuTenure;
      };
      auto aspirates = [&](double delta) {
        return !have_best ||
               cur_score + delta < best_score - LsState::kMinImprove;
      };
      if (rng.next_bool(0.5)) {
        int op = -1, pe = -1;
        if (!sample_shift(op, pe)) continue;
        const double delta = state.shift_delta(op, pe);
        if (delta >= -LsState::kMinImprove) continue;
        if (tabu(op) && !aspirates(delta)) continue;
        state.shift(op, pe);
        cur_score = state.score();
        last_touch[static_cast<std::size_t>(op)] = iter;
        ++res.stats.moves_accepted;
        ++res.stats.shifts_accepted;
        try_incumbent(state, cur_score);
      } else {
        int a = -1, b = -1;
        if (!sample_swap(a, b)) continue;
        const double delta = state.swap_delta(a, b);
        if (delta >= -LsState::kMinImprove) continue;
        if ((tabu(a) || tabu(b)) && !aspirates(delta)) continue;
        state.swap_ops(a, b);
        cur_score = state.score();
        last_touch[static_cast<std::size_t>(a)] = iter;
        last_touch[static_cast<std::size_t>(b)] = iter;
        ++res.stats.moves_accepted;
        ++res.stats.swaps_accepted;
        try_incumbent(state, cur_score);
      }
    }
  }
  if (free_ops.empty()) {
    // Everything frozen: the base is the only binding; certify it as-is.
    LsState state(start_spec);
    try_incumbent(state, state.score());
  }

  res.stats.seconds = now_seconds() - t_start;
  obs::Event(opts.events, "ls.search")
      .arg("restarts", res.stats.restarts_run)
      .arg("examined", res.stats.moves_examined)
      .arg("accepted", res.stats.moves_accepted)
      .arg("oracle_calls", res.stats.oracle_calls)
      .arg("oracle_rejections", res.stats.oracle_rejections)
      .arg("start_repairs", res.stats.start_repairs)
      .arg("feasible", res.feasible)
      .arg("score", res.score)
      .arg("st_target", spec.st_target)
      .arg("seconds", res.stats.seconds);
  return res;
}

}  // namespace cgraf::core
