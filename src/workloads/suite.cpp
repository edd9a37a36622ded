#include "workloads/suite.h"

#include <algorithm>
#include <cmath>

#include "cgrra/stress.h"
#include "util/check.h"

namespace cgraf::workloads {

const char* to_string(UsageBand band) {
  switch (band) {
    case UsageBand::kLow: return "low";
    case UsageBand::kMedium: return "medium";
    case UsageBand::kHigh: return "high";
  }
  return "?";
}

std::vector<BenchmarkSpec> table1_specs(bool paper_scale) {
  const int contexts[] = {4, 8, 16};
  const int dims_default[] = {4, 6, 8};
  const int dims_paper[] = {4, 8, 16};
  const UsageBand bands[] = {UsageBand::kLow, UsageBand::kMedium,
                             UsageBand::kHigh};
  const double base_usage[] = {0.33, 0.52, 0.72};

  std::vector<BenchmarkSpec> specs;
  int number = 1;
  for (int b = 0; b < 3; ++b) {
    for (int c = 0; c < 3; ++c) {
      for (int d = 0; d < 3; ++d) {
        BenchmarkSpec spec;
        spec.name = "B" + std::to_string(number);
        spec.contexts = contexts[c];
        spec.fabric_dim = paper_scale ? dims_paper[d] : dims_default[d];
        spec.band = bands[b];
        // Small deterministic jitter so the 27 entries are not clones.
        spec.usage = base_usage[b] + 0.015 * ((number * 7) % 5 - 2);
        spec.seed = 0x5eedULL * 1000003ULL + static_cast<std::uint64_t>(number);
        specs.push_back(std::move(spec));
        ++number;
      }
    }
  }
  return specs;
}

Design generate_multicontext_design(const Fabric& fabric, int contexts,
                                    const std::vector<int>& ops_per_context,
                                    Rng& rng, double dmu_frac) {
  CGRAF_ASSERT(contexts > 0);
  CGRAF_ASSERT(static_cast<int>(ops_per_context.size()) == contexts);

  Design d{fabric, contexts, {}, {}};
  // PE-delay budget for a combinational cluster: leave wire headroom so the
  // baseline placer can meet the clock.
  const double budget = 0.78 * fabric.clock_period_ns();
  const int widths[] = {8, 16, 32};

  std::vector<std::vector<int>> heads_by_context(
      static_cast<std::size_t>(contexts));
  std::vector<std::vector<int>> all_by_context(
      static_cast<std::size_t>(contexts));

  auto add_op = [&](OpKind kind, int bw, int context) {
    Operation op;
    op.id = d.num_ops();
    op.kind = kind;
    op.bitwidth = bw;
    op.context = context;
    d.ops.push_back(op);
    all_by_context[static_cast<std::size_t>(context)].push_back(op.id);
    return op.id;
  };
  auto alu_kind = [&] { return static_cast<OpKind>(rng.next_int(0, 7)); };
  auto dmu_kind = [&] {
    return static_cast<OpKind>(static_cast<int>(OpKind::kMux) +
                               rng.next_int(0, 3));
  };

  for (int c = 0; c < contexts; ++c) {
    const int target = ops_per_context[static_cast<std::size_t>(c)];
    CGRAF_ASSERT(target >= 1 && target <= fabric.num_pes());
    int made = 0;
    while (made < target) {
      // One combinational cluster: a chain whose PE delays fit the budget.
      const int want = std::min(target - made, rng.next_int(1, 4));
      const int bw = widths[rng.next_below(3)];
      double chain_delay = 0.0;
      int prev = -1;
      int cluster_head = -1;
      for (int k = 0; k < want; ++k) {
        const bool use_dmu = rng.next_bool(dmu_frac);
        Operation probe;
        probe.kind = use_dmu ? dmu_kind() : alu_kind();
        probe.bitwidth = bw;
        double delay = op_delay_ns(probe, fabric.delays());
        if (chain_delay > 0.0 && chain_delay + delay > budget) {
          // Chain is full; retry as an ALU op, else stop the cluster here.
          probe.kind = alu_kind();
          delay = op_delay_ns(probe, fabric.delays());
          if (chain_delay + delay > budget) break;
        }
        const int id = add_op(probe.kind, bw, c);
        if (prev >= 0) d.edges.push_back(Edge{prev, id});
        else cluster_head = id;
        chain_delay += delay;
        prev = id;
        ++made;
      }
      if (cluster_head >= 0)
        heads_by_context[static_cast<std::size_t>(c)].push_back(cluster_head);
    }

    // Wire cluster heads to producers in earlier contexts (registered
    // cross-context dataflow), as HLS would.
    if (c > 0) {
      for (const int head : heads_by_context[static_cast<std::size_t>(c)]) {
        const int n_inputs = rng.next_int(1, 2);
        for (int i = 0; i < n_inputs; ++i) {
          const int src_ctx = rng.next_int(0, c - 1);
          const auto& pool = all_by_context[static_cast<std::size_t>(src_ctx)];
          if (pool.empty()) continue;
          const int src =
              pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
          d.edges.push_back(Edge{src, head});
        }
      }
    }
  }
  return d;
}

GeneratedBenchmark generate_benchmark(const BenchmarkSpec& spec,
                                      const hls::PlacerOptions& placer_opts) {
  Rng rng(spec.seed);
  Fabric fabric(spec.fabric_dim, spec.fabric_dim);

  const int n_pes = fabric.num_pes();
  std::vector<int> per_context(static_cast<std::size_t>(spec.contexts));
  for (int c = 0; c < spec.contexts; ++c) {
    const double jitter = 1.0 + 0.10 * (rng.next_double() - 0.5);
    per_context[static_cast<std::size_t>(c)] = std::clamp(
        static_cast<int>(std::lround(spec.usage * n_pes * jitter)), 1, n_pes);
  }

  GeneratedBenchmark out{
      spec,
      generate_multicontext_design(fabric, spec.contexts, per_context, rng),
      Floorplan{}, 0};
  out.total_ops = out.design.num_ops();

  hls::PlacerOptions popts = placer_opts;
  popts.seed = spec.seed ^ 0x9e3779b97f4a7c15ULL;
  out.baseline = hls::place_baseline(out.design, popts);
  return out;
}

}  // namespace cgraf::workloads
