// Micro-benchmarks of the MILP substrate: basis factorization, FTRAN/BTRAN,
// LP solves on assignment-shaped models, and small branch & bound runs.
//
// Besides the google-benchmark timing table, every case emits one
// machine-readable JSON line on stdout (prefix `CGRAF_BENCH_JSON `) with the
// wall seconds, LP iteration count, node count, thread count and the
// solver's per-stage counters, so a BENCH_*.json trajectory can be tracked
// across commits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "milp/branch_and_bound.h"
#include "milp/lu.h"
#include "milp/model.h"
#include "milp/simplex.h"
#include "obs/bench_compare.h"
#include "obs/build_info.h"
#include "obs/json_writer.h"
#include "util/rng.h"

namespace {

using namespace cgraf;
using namespace cgraf::milp;

// Provenance stamp on every CGRAF_BENCH_JSON line: schema version, git SHA,
// compiler and host thread count, so standalone lines (outside a
// cgraf_bench-run document) remain self-describing and comparable.
void append_meta_fields(obs::JsonWriter& w) {
  w.field("schema_version", obs::kBenchJsonSchemaVersion);
  obs::append_build_info_fields(w);
}

void append_stage_fields(obs::JsonWriter& w, const LpStageStats& s) {
  w.field("pricing_seconds", s.pricing_seconds)
      .field("ftran_seconds", s.ftran_seconds)
      .field("btran_seconds", s.btran_seconds)
      .field("factor_seconds", s.factor_seconds)
      .field("dse_seconds", s.dse_seconds)
      .field("incremental_updates", s.incremental_updates)
      .field("full_refreshes", s.full_refreshes)
      .field("bucket_rebuilds", s.bucket_rebuilds)
      .field("dual_iterations", s.dual_iterations)
      .field("bound_flips", s.bound_flips)
      .field("refactorizations", s.refactorizations)
      .field("steepest_edge_resets", s.steepest_edge_resets)
      .field("dual_fallbacks", s.dual_fallbacks);
}

void emit_lp_json(const char* name, long arg, const LpResult& r) {
  obs::JsonWriter w;
  w.begin_object()
      .field("case", name)
      .field("arg", arg)
      .field("wall_seconds", r.seconds)
      .field("lp_iterations", r.iterations)
      .field("nodes", 0L)
      .field("threads", 1L);
  append_stage_fields(w, r.stats);
  append_meta_fields(w);
  w.end_object();
  std::printf("CGRAF_BENCH_JSON %s\n", w.str().c_str());
}

void emit_mip_json(const char* name, long arg, const MipResult& r) {
  obs::JsonWriter w;
  w.begin_object()
      .field("case", name)
      .field("arg", arg)
      .field("wall_seconds", r.seconds)
      .field("lp_iterations", r.lp_iterations)
      .field("nodes", r.nodes)
      .field("threads", r.threads_used);
  append_stage_fields(w, r.lp_stats);
  append_meta_fields(w);
  w.end_object();
  std::printf("CGRAF_BENCH_JSON %s\n", w.str().c_str());
}

// ops x pes assignment feasibility model with stress rows (the shape the
// floorplanner generates).
Model assignment_model(int ops, int pes, int contexts, std::uint64_t seed,
                       bool integer) {
  Rng rng(seed);
  Model m;
  std::vector<std::vector<int>> vars(static_cast<size_t>(ops));
  std::vector<double> stress(static_cast<size_t>(ops));
  for (int j = 0; j < ops; ++j) {
    stress[static_cast<size_t>(j)] = 0.2 + 0.6 * rng.next_double();
    for (int k = 0; k < pes; ++k)
      vars[static_cast<size_t>(j)].push_back(
          integer ? m.add_binary(rng.next_double())
                  : m.add_continuous(0, 1, rng.next_double()));
    std::vector<std::pair<int, double>> row;
    for (const int v : vars[static_cast<size_t>(j)]) row.emplace_back(v, 1.0);
    m.add_eq(std::move(row), 1.0);
  }
  const int per_ctx = ops / contexts;
  for (int c = 0; c < contexts; ++c) {
    for (int k = 0; k < pes; ++k) {
      std::vector<std::pair<int, double>> row;
      for (int j = c * per_ctx; j < (c + 1) * per_ctx && j < ops; ++j)
        row.emplace_back(vars[static_cast<size_t>(j)][static_cast<size_t>(k)],
                         1.0);
      if (row.size() > 1) m.add_le(std::move(row), 1.0);
    }
  }
  double total = 0.0;
  for (const double s : stress) total += s;
  // The per-PE cap must admit at least one whole op, or tiny instances are
  // trivially infeasible.
  const double cap = std::max(1.3 * total / pes, 0.85);
  for (int k = 0; k < pes; ++k) {
    std::vector<std::pair<int, double>> row;
    for (int j = 0; j < ops; ++j)
      row.emplace_back(vars[static_cast<size_t>(j)][static_cast<size_t>(k)],
                       stress[static_cast<size_t>(j)]);
    m.add_le(std::move(row), cap);
  }
  return m;
}

// A realistic, guaranteed-factorizable basis: the optimal basis of the
// model's LP relaxation.
std::vector<int> optimal_basis(const Model& m) {
  const LpResult lp = solve_lp(m);
  std::vector<int> basis;
  for (int j = 0; j < static_cast<int>(lp.basis.size()); ++j)
    if (lp.basis[static_cast<size_t>(j)] == ColStatus::kBasic)
      basis.push_back(j);
  return basis;
}

// A cold LP solve. range(0) = ops.
void BM_LpAssignment(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const Model m = assignment_model(ops, 36, 4, 42, /*integer=*/false);
  for (auto _ : state) {
    const LpResult r = solve_lp(m);
    benchmark::DoNotOptimize(r.obj);
    if (r.status != SolveStatus::kOptimal) state.SkipWithError("LP failed");
  }
  state.counters["vars"] = m.num_vars();
  state.counters["rows"] = m.num_constraints();
  const LpResult probe = solve_lp(m);
  state.counters["lp_iters"] = static_cast<double>(probe.iterations);
  emit_lp_json("lp_assignment", state.range(0), probe);
}
BENCHMARK(BM_LpAssignment)
    ->Arg(24)->Arg(48)->Arg(96)
    ->Unit(benchmark::kMillisecond);

// range(0) = ops, range(1) = branch & bound worker threads.
void BM_MilpAssignment(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const Model m = assignment_model(ops, 16, 4, 7, /*integer=*/true);
  MipOptions opts;
  opts.stop_at_first_incumbent = true;
  opts.num_threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    const MipResult r = solve_milp(m, opts);
    benchmark::DoNotOptimize(r.nodes);
    if (!r.has_solution()) state.SkipWithError("MILP failed");
  }
  const MipResult probe = solve_milp(m, opts);
  state.counters["nodes"] = static_cast<double>(probe.nodes);
  emit_mip_json("milp_assignment", state.range(0), probe);
}
BENCHMARK(BM_MilpAssignment)
    ->Args({16, 1})->Args({16, 2})->Args({16, 4})
    ->Args({24, 1})->Args({24, 2})->Args({24, 4})
    ->Unit(benchmark::kMillisecond);

// A binary-search-shaped probe sequence: one engine, the per-PE stress-cap
// rows' RHS re-ranged between solves, each solve warm-started from the
// previous basis. range(0) = ops, range(1) = warm (1) or cold (0) — the
// cold variant re-solves from the slack basis so the pair measures exactly
// what basis chaining buys on the floorplanner's probe loops.
void BM_LpRhsRampProbes(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const bool warm = state.range(1) == 1;
  const int pes = 36;
  const Model m = assignment_model(ops, pes, 4, 42, /*integer=*/false);
  const int rows = m.num_constraints();
  // assignment_model appends the per-PE stress caps last.
  const double cap0 = m.constraint(rows - 1).ub;
  constexpr int kProbes = 8;
  int warm_hits = 0;
  long iters = 0;
  double probe_seconds[kProbes] = {};
  for (auto _ : state) {
    SimplexEngine engine(m);
    std::vector<ColStatus> basis;
    warm_hits = 0;
    iters = 0;
    for (int p = 0; p < kProbes; ++p) {
      // Tighten the cap each probe, like the ST_target bisection closing in.
      const double cap = cap0 * (1.0 - 0.03 * p);
      for (int k = 0; k < pes; ++k)
        engine.set_row_bounds(rows - pes + k, -kInf, cap);
      const LpResult r =
          engine.solve(warm && !basis.empty() ? &basis : nullptr);
      if (r.status != SolveStatus::kOptimal &&
          r.status != SolveStatus::kInfeasible) {
        state.SkipWithError("probe LP failed");
        break;
      }
      if (r.warm_used) ++warm_hits;
      iters += r.iterations;
      probe_seconds[p] = r.seconds;
      if (!r.basis.empty()) basis = r.basis;
      benchmark::DoNotOptimize(r.obj);
    }
  }
  state.counters["probes"] = kProbes;
  state.counters["warm_hits"] = warm_hits;
  state.counters["lp_iters"] = static_cast<double>(iters);
  {
    double total = 0.0, mx = 0.0;
    for (const double s : probe_seconds) {
      total += s;
      mx = std::max(mx, s);
    }
    obs::JsonWriter w;
    w.begin_object()
        .field("case", "lp_rhs_ramp")
        .field("arg", static_cast<long>(state.range(0)))
        .field("warm", warm)
        .field("probes", static_cast<long>(kProbes))
        .field("warm_hits", static_cast<long>(warm_hits))
        .field("wall_seconds", total)
        .field("probe_max_s", mx)
        .field("lp_iterations", iters)
        .field("nodes", 0L)
        .field("threads", 1L);
    append_meta_fields(w);
    w.end_object();
    std::printf("CGRAF_BENCH_JSON %s\n", w.str().c_str());
  }
}
BENCHMARK(BM_LpRhsRampProbes)
    ->Args({48, 0})->Args({48, 1})
    ->Args({96, 0})->Args({96, 1})
    ->Unit(benchmark::kMillisecond);

// The branch & bound child shape: each re-solve differs from the shared
// parent by exactly one tightened variable bound and starts from the
// parent's optimal basis — the case the dual simplex loop exists for.
// range(0) = ops.
void BM_LpChildResolve(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const Model m = assignment_model(ops, 36, 4, 42, /*integer=*/false);
  SimplexEngine engine(m);
  const LpResult root = engine.solve();
  if (root.status != SolveStatus::kOptimal) {
    state.SkipWithError("root LP failed");
    return;
  }
  // Branch on basic (fractional-looking) columns so every child does real
  // pivoting work instead of confirming an unchanged optimum.
  std::vector<int> branch_vars;
  for (int j = 0;
       j < engine.num_structural() && static_cast<int>(branch_vars.size()) < 16;
       ++j) {
    if (root.basis[static_cast<size_t>(j)] == ColStatus::kBasic)
      branch_vars.push_back(j);
  }
  const std::vector<double>& lb = engine.model_lb();
  std::vector<double> ub = engine.model_ub();
  long iters = 0, dual_iters = 0;
  double wall = 0.0, obj_sum = 0.0;
  LpStageStats stage;
  for (auto _ : state) {
    iters = 0;
    dual_iters = 0;
    wall = 0.0;
    obj_sum = 0.0;
    stage = LpStageStats{};
    for (const int v : branch_vars) {
      const double saved = ub[static_cast<size_t>(v)];
      ub[static_cast<size_t>(v)] = 0.0;  // the "fix to 0" child
      const LpResult r = engine.solve(lb, ub, &root.basis);
      ub[static_cast<size_t>(v)] = saved;
      if (r.status != SolveStatus::kOptimal &&
          r.status != SolveStatus::kInfeasible) {
        state.SkipWithError("child LP failed");
        break;
      }
      iters += r.iterations;
      dual_iters += r.stats.dual_iterations;
      wall += r.seconds;
      if (r.status == SolveStatus::kOptimal) obj_sum += r.obj;
      stage.add(r.stats);
      benchmark::DoNotOptimize(r.obj);
    }
  }
  state.counters["children"] = static_cast<double>(branch_vars.size());
  state.counters["lp_iters"] = static_cast<double>(iters);
  state.counters["dual_iters"] = static_cast<double>(dual_iters);
  {
    obs::JsonWriter w;
    w.begin_object()
        .field("case", "lp_child_resolve")
        .field("arg", static_cast<long>(state.range(0)))
        .field("children", static_cast<long>(branch_vars.size()))
        .field("wall_seconds", wall)
        .field("lp_iterations", iters)
        .field("objective_sum", obj_sum)
        .field("nodes", 0L)
        .field("threads", 1L);
    append_stage_fields(w, stage);
    append_meta_fields(w);
    w.end_object();
    std::printf("CGRAF_BENCH_JSON %s\n", w.str().c_str());
  }
}
BENCHMARK(BM_LpChildResolve)
    ->Arg(48)->Arg(96)
    ->Unit(benchmark::kMillisecond);

void BM_LuFactorize(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const Model m = assignment_model(ops, 36, 4, 3, false);
  const CscMatrix a = build_computational_form(m);
  const std::vector<int> basis = optimal_basis(m);
  if (static_cast<int>(basis.size()) != a.rows) {
    state.SkipWithError("unexpected basis size");
    return;
  }
  BasisLu lu;
  for (auto _ : state) {
    const bool ok = lu.factorize(a, basis);
    if (!ok) state.SkipWithError("factorization failed");
    benchmark::DoNotOptimize(ok);
  }
  state.counters["dim"] = a.rows;
  state.counters["factor_nnz"] = lu.factor_nnz();
}
BENCHMARK(BM_LuFactorize)->Arg(48)->Arg(96)->Unit(benchmark::kMicrosecond);

void BM_FtranBtran(benchmark::State& state) {
  const Model m = assignment_model(96, 36, 4, 3, false);
  const CscMatrix a = build_computational_form(m);
  const std::vector<int> basis = optimal_basis(m);
  BasisLu lu;
  if (static_cast<int>(basis.size()) != a.rows || !lu.factorize(a, basis)) {
    state.SkipWithError("factorization failed");
    return;
  }
  std::vector<double> x(static_cast<size_t>(a.rows), 1.0);
  for (auto _ : state) {
    lu.ftran(x);
    lu.btran(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_FtranBtran)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
