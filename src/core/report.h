// Experiment drivers: run one benchmark through both Table-I variants
// (Freeze / Rotate) and format result tables.
#pragma once

#include <string>
#include <vector>

#include "core/remapper.h"
#include "workloads/suite.h"

namespace cgraf::core {

struct BenchmarkRun {
  workloads::BenchmarkSpec spec;
  int total_ops = 0;  // Table I "PE #"
  RemapResult freeze;
  RemapResult rotate;
};

// Runs Freeze and Rotate on an already-generated benchmark. `base_opts`
// carries solver limits/seeds; the mode field is overridden per variant.
BenchmarkRun run_benchmark(const workloads::GeneratedBenchmark& bench,
                           RemapOptions base_opts = {});

// Renders Table I (three usage-band super-columns collapsed into rows) from
// a full suite run, with the per-band averages the paper reports.
std::string format_table1(const std::vector<BenchmarkRun>& runs);

// Renders the Fig. 5 series: MTTF gain per CxFy configuration for the
// low/medium/high benchmarks.
std::string format_fig5(const std::vector<BenchmarkRun>& runs);

// Renders the solver's per-stage instrumentation (pricing / FTRAN / BTRAN /
// factorization time, candidate refreshes, nodes per B&B worker) for one
// two-step solve, as a small human-readable table.
std::string format_solver_stats(const TwoStepStats& stats);

// The same counters as a flat JSON object fragment (no surrounding braces),
// e.g. `"lp_iterations":123,"pricing_seconds":0.004,...` — the benches embed
// it in their one-line-per-case JSON records.
std::string solver_stats_json(const TwoStepStats& stats);

}  // namespace cgraf::core
