// LS-vs-exact quality gap over the Table-I suite plus a seeded corpus.
//
// For every benchmark both solvers walk the same descending stress-target
// ladder between the fabric-average lower bound and the baseline maximum;
// each records the tightest rung it can satisfy (the exact side through the
// warm ProbeSession MILP pipeline, the heuristic through
// local_search_remap). The contract: every LS success passes an
// independent certify_floorplan check, per-case gaps stay within a
// generous class bound, and the median gap across the whole corpus is at
// most 5%. Each case also emits a `CGRAF_BENCH_JSON` gap row so the bench
// harness can track the trajectory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cgrra/stress.h"
#include "core/local_search.h"
#include "core/probe_session.h"
#include "obs/json_writer.h"
#include "util/geometry.h"
#include "verify/certify.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

// Rungs as fractions of (st_up - st_low) above st_low, loosest first. The
// loosest rung equals the baseline maximum, which the identity binding
// satisfies, so every case has at least one feasible rung.
constexpr double kRungs[] = {1.0, 0.8, 0.62, 0.47, 0.35, 0.25, 0.18};
constexpr int kNumRungs = static_cast<int>(sizeof(kRungs) / sizeof(kRungs[0]));

// Candidate sets capped to a Manhattan radius around each op's baseline PE:
// identical for both solvers (the comparison stays apples-to-apples) and
// keeps the exact model tractable on the 8x8 fabrics.
std::vector<std::vector<int>> radius_candidates(const Design& design,
                                                const Floorplan& base,
                                                int radius) {
  const Fabric& fabric = design.fabric;
  std::vector<std::vector<int>> cand(design.ops.size());
  for (std::size_t op = 0; op < design.ops.size(); ++op) {
    const Point home = fabric.loc(base.pe_of(static_cast<int>(op)));
    for (int pe = 0; pe < fabric.num_pes(); ++pe) {
      if (manhattan(fabric.loc(pe), home) <= radius) cand[op].push_back(pe);
    }
  }
  return cand;
}

struct GapCase {
  std::string name;
  workloads::UsageBand band;
  int total_ops = 0;
  double exact_target = 0.0;  // tightest rung the exact pipeline satisfied
  double ls_target = 0.0;     // tightest rung the local search satisfied
  double gap = 0.0;           // max(0, ls - exact) / exact
};

GapCase run_case(const workloads::GeneratedBenchmark& bench) {
  GapCase out;
  out.name = bench.spec.name;
  out.band = bench.spec.band;
  out.total_ops = bench.total_ops;

  const StressMap base_stress = compute_stress(bench.design, bench.baseline);
  const double st_up = base_stress.max_accumulated();
  const double st_low = base_stress.avg_accumulated();

  RemapModelSpec spec;
  spec.design = &bench.design;
  spec.base = &bench.baseline;
  spec.frozen.assign(bench.design.ops.size(), 0);
  const int radius = bench.spec.fabric_dim >= 8 ? 1 : 2;
  spec.candidates = radius_candidates(bench.design, bench.baseline, radius);

  auto rung = [&](int k) { return st_low + kRungs[k] * (st_up - st_low); };

  // Exact: budgeted feasibility solves (the remapper's production knobs),
  // descending until the first rung the pipeline cannot satisfy.
  {
    TwoStepOptions solver;
    solver.mip.stop_at_first_incumbent = true;
    solver.mip.max_nodes = 4000;
    solver.mip.time_limit_s = 10.0;
    ProbeSession session(spec, solver);
    out.exact_target = rung(0);
    for (int k = 0; k < kNumRungs; ++k) {
      const TwoStepResult r = session.solve(rung(k));
      if (r.status != milp::SolveStatus::kOptimal) break;
      out.exact_target = rung(k);
    }
  }

  // Heuristic: same ladder, same stop rule; every success must re-certify.
  {
    LocalSearchOptions opts;
    opts.seed = bench.spec.seed ^ 0x15c4ULL;
    opts.max_iters =
        std::max(3000, 12 * static_cast<int>(bench.design.ops.size()));
    opts.restarts = 3;
    out.ls_target = rung(0);
    for (int k = 0; k < kNumRungs; ++k) {
      RemapModelSpec ls_spec = spec;
      ls_spec.st_target = rung(k);
      const LocalSearchResult r = local_search_remap(ls_spec, opts);
      if (!r.feasible) break;
      verify::FloorplanSpec fspec;
      fspec.design = &bench.design;
      fspec.st_target = rung(k);
      EXPECT_TRUE(verify::certify_floorplan(fspec, r.floorplan).ok)
          << out.name << " rung " << k;
      EXPECT_LE(r.max_stress, rung(k) + 1e-9) << out.name << " rung " << k;
      out.ls_target = rung(k);
    }
  }

  out.gap = std::max(0.0, out.ls_target - out.exact_target) /
            std::max(out.exact_target, 1e-12);

  obs::JsonWriter w;
  w.begin_object()
      .field("case", ("ls_gap_" + out.name).c_str())
      .field("band", workloads::to_string(out.band))
      .field("total_ops", out.total_ops)
      .field("exact_target", out.exact_target)
      .field("ls_target", out.ls_target)
      .field("gap", out.gap)
      .end_object();
  std::printf("CGRAF_BENCH_JSON %s\n", w.str().c_str());
  return out;
}

void check_corpus(const std::vector<GapCase>& cases) {
  ASSERT_FALSE(cases.empty());
  // Per-class bound: a heuristic may trail the exact pipeline on a rung or
  // two, but never collapse. The ladder spacing makes 0.5 a miss of several
  // rungs.
  for (const GapCase& c : cases) {
    EXPECT_LE(c.gap, 0.5) << c.name;
  }
  std::vector<double> gaps;
  for (const GapCase& c : cases) gaps.push_back(c.gap);
  std::sort(gaps.begin(), gaps.end());
  const double median = gaps[gaps.size() / 2];
  EXPECT_LE(median, 0.05) << "median gap over " << gaps.size() << " cases";
}

TEST(LsQualityGap, Table1SuiteMedianGapWithinFivePercent) {
  std::vector<GapCase> cases;
  for (const workloads::BenchmarkSpec& spec : workloads::table1_specs()) {
    cases.push_back(run_case(workloads::generate_benchmark(spec)));
  }
  check_corpus(cases);
}

TEST(LsQualityGap, SeededCorpusMedianGapWithinFivePercent) {
  // Re-seeded variants of the small/medium specs: different netlists and
  // baselines, same contract.
  std::vector<GapCase> cases;
  const auto specs = workloads::table1_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    workloads::BenchmarkSpec spec = specs[i];
    if (spec.fabric_dim > 6) continue;
    spec.seed ^= 0xc0ffee00ULL + i;
    spec.name += "_s2";
    cases.push_back(run_case(workloads::generate_benchmark(spec)));
  }
  check_corpus(cases);
}

}  // namespace
}  // namespace cgraf::core
