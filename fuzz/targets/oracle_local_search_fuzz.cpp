// Move-level oracle target for the shift/swap local search.
//
// Fuzzer bytes decode a small Design + base Floorplan that satisfies
// per-context exclusivity *by construction* (ops claim free (context, PE)
// slots as they are created), plus frozen flags, candidate subsets, an
// optional stress target and an optional monitored path. The bytes then
// drive LsState moves directly, and the independent certifier arbitrates
// every step:
//
//   accepted move   =>  score strictly decreases AND the applied change
//                       matches the predicted delta      (else abort)
//   after any move  =>  structural certificate stays green: one op per PE
//                       per context, frozen ops pinned   (else abort)
//   full search     =>  a feasible result re-certifies
//                       against the complete spec        (else abort)
//   infeasible run  =>  the base binding is returned untouched
//
// Any abort is a fuzzer crash: either a move corrupted the incremental
// aggregates (score model and certifier disagree) or the driver shipped a
// binding the independent oracle rejects.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "cgrra/design.h"
#include "cgrra/floorplan.h"
#include "cgrra/stress.h"
#include "core/local_search.h"
#include "timing/paths.h"
#include "verify/certify.h"

namespace {

// Deterministic byte stream over the fuzzer input; reads past the end
// yield zeros so every prefix decodes to something.
struct ByteReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  std::uint8_t take() { return pos < size ? data[pos++] : 0; }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(take()) % (hi - lo + 1);
  }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace cgraf;
  ByteReader r{data, size};

  const int dim = r.range(2, 4);
  Design design{Fabric(dim, dim), r.range(1, 3), {}, {}};
  const int n_pes = design.fabric.num_pes();

  // Ops claim free (context, PE) slots, so the base satisfies exclusivity
  // by construction — LsState's precondition, asserted in its ctor.
  Floorplan base;
  std::vector<char> occupied(
      static_cast<std::size_t>(design.num_contexts * n_pes), 0);
  const int want_ops = r.range(0, 12);
  for (int i = 0; i < want_ops; ++i) {
    const int ctx = r.range(0, design.num_contexts - 1);
    const int start = r.range(0, n_pes - 1);
    int pe = -1;
    for (int k = 0; k < n_pes; ++k) {
      const int cand = (start + k) % n_pes;
      if (!occupied[static_cast<std::size_t>(ctx * n_pes + cand)]) {
        pe = cand;
        break;
      }
    }
    if (pe < 0) continue;  // context full
    occupied[static_cast<std::size_t>(ctx * n_pes + pe)] = 1;
    Operation op;
    op.id = static_cast<int>(design.ops.size());
    op.kind = r.take() % 3 == 0 ? OpKind::kMux : OpKind::kAdd;
    op.context = ctx;
    design.ops.push_back(op);
    base.op_to_pe.push_back(pe);
  }
  const int n_ops = static_cast<int>(design.ops.size());

  core::RemapModelSpec spec;
  spec.design = &design;
  spec.base = &base;
  spec.frozen.assign(static_cast<std::size_t>(n_ops), 0);
  spec.candidates.assign(static_cast<std::size_t>(n_ops), {});
  for (int op = 0; op < n_ops; ++op) {
    if (r.take() % 8 == 0) spec.frozen[static_cast<std::size_t>(op)] = 1;
    // Random candidate subset, always containing the base PE.
    const std::uint8_t mask = r.take();
    for (int pe = 0; pe < n_pes; ++pe) {
      if (pe == base.pe_of(op) || (mask >> (pe % 8)) & 1)
        spec.candidates[static_cast<std::size_t>(op)].push_back(pe);
    }
  }

  // Stress target: unchecked, loose (base feasible), or a squeeze below the
  // base maximum so the search has real work (and may fail feasibly).
  const StressMap base_stress = compute_stress(design, base);
  switch (r.take() % 3) {
    case 0: spec.st_target = -1.0; break;
    case 1: spec.st_target = base_stress.max_accumulated() + 1e-9; break;
    default:
      spec.st_target = 0.25 * (0.5 + 0.125 * r.range(0, 7)) *
                           base_stress.max_accumulated() +
                       0.75 * base_stress.avg_accumulated();
      break;
  }

  // Optionally monitor one path over context-0 ops.
  std::vector<timing::TimingPath> monitored;
  if (r.take() % 2 == 0) {
    timing::TimingPath p;
    p.context = 0;
    for (int op = 0; op < n_ops && static_cast<int>(p.ops.size()) < 3; ++op) {
      if (design.ops[static_cast<std::size_t>(op)].context == 0)
        p.ops.push_back(op);
    }
    if (!p.ops.empty()) {
      monitored.push_back(p);
      spec.monitored = &monitored;
      spec.cpd_ns = 0.5 * r.range(1, 24);
    }
  }

  // Structural invariant the certifier must confirm after every move:
  // exclusivity and frozen pins (stress/path budgets may legitimately be
  // violated mid-descent, so they are not part of this check).
  verify::FloorplanSpec structural;
  structural.design = &design;
  structural.reference = &base;
  structural.frozen = spec.frozen;

  core::LsState state(spec);
  double prev_score = state.score();
  const int n_moves = r.range(0, 64);
  for (int m = 0; m < n_moves; ++m) {
    const bool is_swap = r.take() % 2 != 0;
    if (n_ops == 0) break;
    bool applied = false;
    if (is_swap) {
      const int a = r.range(0, n_ops - 1);
      const int b = r.range(0, n_ops - 1);
      if (a != b && state.can_swap(a, b)) {
        const double delta = state.swap_delta(a, b);
        if (delta < -core::LsState::kMinImprove) {
          state.swap_ops(a, b);
          applied = true;
          if (std::abs(state.score() - (prev_score + delta)) > 1e-6)
            std::abort();  // delta prediction disagrees with applied move
        }
      }
    } else {
      const int op = r.range(0, n_ops - 1);
      const int pe = r.range(0, n_pes - 1);
      if (state.can_shift(op, pe)) {
        const double delta = state.shift_delta(op, pe);
        if (delta < -core::LsState::kMinImprove) {
          state.shift(op, pe);
          applied = true;
          if (std::abs(state.score() - (prev_score + delta)) > 1e-6)
            std::abort();
        }
      }
    }
    if (!applied) continue;
    if (!(state.score() < prev_score)) std::abort();  // descent monotone
    prev_score = state.score();
    if (!verify::certify_floorplan(structural, state.floorplan()).ok)
      std::abort();  // a legal move broke exclusivity or moved a frozen op
  }

  // The full driver on the same spec: a feasible result must re-certify
  // against the complete spec independently.
  core::LocalSearchOptions opts;
  opts.seed = static_cast<std::uint64_t>(r.take()) + 1;
  opts.max_iters = 300;
  opts.restarts = 2;
  const core::LocalSearchResult result = core::local_search_remap(spec, opts);
  if (result.feasible) {
    verify::FloorplanSpec full = structural;
    full.st_target = spec.st_target;
    full.monitored = spec.monitored;
    full.cpd_ns = spec.cpd_ns;
    if (!verify::certify_floorplan(full, result.floorplan).ok)
      std::abort();  // shipped binding fails the independent oracle
  } else if (result.floorplan.op_to_pe != base.op_to_pe) {
    std::abort();  // infeasible runs must return the base untouched
  }
  return 0;
}
