#include "core/report.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/json_writer.h"
#include "util/ascii.h"
#include "util/check.h"

namespace cgraf::core {

BenchmarkRun run_benchmark(const workloads::GeneratedBenchmark& bench,
                           RemapOptions base_opts) {
  BenchmarkRun run;
  run.spec = bench.spec;
  run.total_ops = bench.total_ops;

  RemapOptions freeze_opts = base_opts;
  freeze_opts.mode = RemapMode::kFreeze;
  freeze_opts.seed = bench.spec.seed ^ 0xf00dULL;
  run.freeze = aging_aware_remap(bench.design, bench.baseline, freeze_opts);

  RemapOptions rotate_opts = base_opts;
  rotate_opts.mode = RemapMode::kRotate;
  rotate_opts.seed = bench.spec.seed ^ 0x0dd5ULL;
  run.rotate = aging_aware_remap(bench.design, bench.baseline, rotate_opts);
  return run;
}

std::string format_table1(const std::vector<BenchmarkRun>& runs) {
  AsciiTable table({"ctx", "fabric", "bench", "band", "PE#", "MTTF x (Freeze)",
                    "MTTF x (Rotate)", "CPD ok"});
  std::map<workloads::UsageBand, std::pair<double, int>> freeze_avg;
  std::map<workloads::UsageBand, std::pair<double, int>> rotate_avg;

  workloads::UsageBand last_band = workloads::UsageBand::kLow;
  bool first = true;
  for (const BenchmarkRun& run : runs) {
    if (!first && run.spec.band != last_band) table.add_separator();
    first = false;
    last_band = run.spec.band;
    const bool cpd_ok =
        run.freeze.cpd_after_ns <= run.freeze.cpd_before_ns + 1e-9 &&
        run.rotate.cpd_after_ns <= run.rotate.cpd_before_ns + 1e-9;
    table.add_row({std::to_string(run.spec.contexts),
                   std::to_string(run.spec.fabric_dim) + "x" +
                       std::to_string(run.spec.fabric_dim),
                   run.spec.name, to_string(run.spec.band),
                   std::to_string(run.total_ops),
                   fmt_double(run.freeze.mttf_gain, 2),
                   fmt_double(run.rotate.mttf_gain, 2),
                   cpd_ok ? "yes" : "NO"});
    auto& f = freeze_avg[run.spec.band];
    f.first += run.freeze.mttf_gain;
    f.second += 1;
    auto& r = rotate_avg[run.spec.band];
    r.first += run.rotate.mttf_gain;
    r.second += 1;
  }

  std::string out = table.render();
  out += "averages:";
  for (const auto band :
       {workloads::UsageBand::kLow, workloads::UsageBand::kMedium,
        workloads::UsageBand::kHigh}) {
    const auto fit = freeze_avg.find(band);
    if (fit == freeze_avg.end() || fit->second.second == 0) continue;
    const auto rit = rotate_avg.find(band);
    out += std::string("  ") + to_string(band) +
           " freeze=" + fmt_double(fit->second.first / fit->second.second, 2) +
           " rotate=" + fmt_double(rit->second.first / rit->second.second, 2);
  }
  out += "\n";
  return out;
}

std::string format_fig5(const std::vector<BenchmarkRun>& runs) {
  // Group by (contexts, fabric_dim); one column per usage band.
  std::map<std::pair<int, int>,
           std::map<workloads::UsageBand, double>>
      by_config;
  for (const BenchmarkRun& run : runs) {
    by_config[{run.spec.contexts, run.spec.fabric_dim}][run.spec.band] =
        run.rotate.mttf_gain;
  }
  AsciiTable table({"config", "low", "medium", "high"});
  for (const auto& [config, bands] : by_config) {
    auto cell = [&](workloads::UsageBand b) {
      const auto it = bands.find(b);
      return it == bands.end() ? std::string("-")
                               : fmt_double(it->second, 2);
    };
    table.add_row({"C" + std::to_string(config.first) + "F" +
                       std::to_string(config.second),
                   cell(workloads::UsageBand::kLow),
                   cell(workloads::UsageBand::kMedium),
                   cell(workloads::UsageBand::kHigh)});
  }
  return table.render();
}

std::string format_solver_stats(const TwoStepStats& stats) {
  const milp::LpStageStats& s = stats.lp_stage;
  AsciiTable table({"counter", "value"});
  table.add_row({"LP iterations (dive)", std::to_string(stats.lp_iterations)});
  table.add_row({"LP iterations (B&B)",
                 std::to_string(stats.mip_lp_iterations)});
  table.add_row({"phase-1 iterations", std::to_string(s.phase1_iterations)});
  table.add_row({"B&B nodes", std::to_string(stats.mip_nodes)});
  table.add_row({"B&B threads", std::to_string(stats.mip_threads)});
  std::string per_thread;
  for (const long n : stats.mip_nodes_per_thread) {
    if (!per_thread.empty()) per_thread += "/";
    per_thread += std::to_string(n);
  }
  table.add_row({"nodes per thread",
                 per_thread.empty() ? std::string("-") : per_thread});
  table.add_row({"dive rounds", std::to_string(stats.dive_rounds)});
  table.add_row({"vars fixed", std::to_string(stats.vars_fixed) + "/" +
                                   std::to_string(stats.vars_total)});
  table.add_row({"LP status", milp::to_string(stats.lp_status)});
  table.add_row({"MIP status", milp::to_string(stats.mip_status)});
  table.add_row({"LP time", fmt_double(stats.lp_seconds, 4) + "s"});
  table.add_row({"MIP time", fmt_double(stats.mip_seconds, 4) + "s"});
  table.add_row({"fallback (unfixed re-solve)",
                 stats.fallback_unfixed ? "yes" : "no"});
  table.add_row({"dual iterations", std::to_string(s.dual_iterations)});
  table.add_row({"bound flips", std::to_string(s.bound_flips)});
  table.add_row({"refactorizations", std::to_string(s.refactorizations)});
  table.add_row({"steepest-edge resets",
                 std::to_string(s.steepest_edge_resets)});
  table.add_row({"dual fallbacks", std::to_string(s.dual_fallbacks)});
  table.add_row({"pricing time", fmt_double(s.pricing_seconds, 4) + "s"});
  table.add_row({"ftran time", fmt_double(s.ftran_seconds, 4) + "s"});
  table.add_row({"btran time", fmt_double(s.btran_seconds, 4) + "s"});
  table.add_row({"factorize time", fmt_double(s.factor_seconds, 4) + "s"});
  table.add_row({"dual pricing time", fmt_double(s.dse_seconds, 4) + "s"});
  table.add_row({"incremental price updates",
                 std::to_string(s.incremental_updates)});
  table.add_row({"full pricing refreshes",
                 std::to_string(s.full_refreshes)});
  table.add_row({"candidate bucket rebuilds",
                 std::to_string(s.bucket_rebuilds)});
  table.add_row({"warm-started", stats.warm_start_used ? "yes" : "no"});
  return table.render();
}

std::string solver_stats_json(const TwoStepStats& stats) {
  // Emitted as an object-body fragment (no surrounding braces): callers
  // embed it inside their own records, e.g. `"solver":{%s}`.
  const milp::LpStageStats& s = stats.lp_stage;
  obs::JsonWriter w;
  w.field("lp_iterations", stats.lp_iterations)
      .field("mip_lp_iterations", stats.mip_lp_iterations)
      .field("phase1_iterations", s.phase1_iterations)
      .field("nodes", stats.mip_nodes)
      .field("threads", stats.mip_threads)
      .field("dive_rounds", stats.dive_rounds)
      .field("vars_fixed", stats.vars_fixed)
      .field("vars_total", stats.vars_total)
      .field("lp_seconds", stats.lp_seconds)
      .field("mip_seconds", stats.mip_seconds)
      .field("lp_status", milp::to_string(stats.lp_status))
      .field("mip_status", milp::to_string(stats.mip_status))
      .field("fallback_unfixed", stats.fallback_unfixed)
      .field("dual_iterations", s.dual_iterations)
      .field("bound_flips", s.bound_flips)
      .field("refactorizations", s.refactorizations)
      .field("steepest_edge_resets", s.steepest_edge_resets)
      .field("dual_fallbacks", s.dual_fallbacks)
      .field("pricing_seconds", s.pricing_seconds)
      .field("ftran_seconds", s.ftran_seconds)
      .field("btran_seconds", s.btran_seconds)
      .field("factor_seconds", s.factor_seconds)
      .field("dse_seconds", s.dse_seconds)
      .field("incremental_updates", s.incremental_updates)
      .field("full_refreshes", s.full_refreshes)
      .field("bucket_rebuilds", s.bucket_rebuilds)
      .field("warm_start_used", stats.warm_start_used);
  w.key("nodes_per_thread").begin_array();
  for (const long n : stats.mip_nodes_per_thread) w.value(n);
  w.end_array();
  return w.str();
}

}  // namespace cgraf::core
