#include "core/st_target.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>

#include "cgrra/floorplan.h"
#include "cgrra/stress.h"
#include "core/model_builder.h"
#include "hls/placer.h"
#include "verify/certify.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

TEST(StTarget, BoundsComeFromTheBaselineStressMap) {
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[0]);
  const StressMap stress = compute_stress(bench.design, bench.baseline);
  const StTargetResult r = find_st_target(bench.design, bench.baseline);
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.st_up, stress.max_accumulated());
  EXPECT_DOUBLE_EQ(r.st_low, stress.avg_accumulated());
  // Step 1 in closed form: the target is ST_low itself, bit for bit.
  EXPECT_EQ(r.st_target, r.st_low);
}

TEST(StTarget, StepOneLpIsFeasibleAtStLow) {
  // The lemma behind the closed form: Step 1's model (nothing frozen, every
  // PE a candidate, no path rows) is LP-feasible at ST_low, witnessed by
  // the uniform point x[op][pe] = 1/N. Checked without a solver. ST_low is
  // total stress / N for any binding, so the baselines skip annealing and
  // keep the placer's initial (valid) placement.
  hls::PlacerOptions placer;
  placer.moves_per_op = 0;
  for (const auto& base_spec : workloads::table1_specs(false)) {
    for (const std::uint64_t salt : {0ULL, 1ULL, 2ULL}) {
      workloads::BenchmarkSpec spec = base_spec;
      spec.seed ^= salt;
      SCOPED_TRACE(spec.name + " seed " + std::to_string(spec.seed));
      const auto bench = workloads::generate_benchmark(spec, placer);
      const Design& d = bench.design;
      std::string why;
      ASSERT_TRUE(is_valid(d, bench.baseline, &why)) << why;
      const int n_pes = d.fabric.num_pes();
      RemapModelSpec mspec;
      mspec.design = &d;
      mspec.base = &bench.baseline;
      mspec.frozen.assign(static_cast<std::size_t>(d.num_ops()), 0);
      std::vector<int> all_pes(static_cast<std::size_t>(n_pes));
      std::iota(all_pes.begin(), all_pes.end(), 0);
      mspec.candidates.assign(static_cast<std::size_t>(d.num_ops()), all_pes);
      mspec.st_target = find_st_target(d, bench.baseline).st_low;
      mspec.monitored = nullptr;
      mspec.objective = ObjectiveMode::kNull;
      const RemapModel rm = build_remap_model(mspec);
      ASSERT_FALSE(rm.trivially_infeasible) << rm.infeasible_reason;

      std::vector<double> x(static_cast<std::size_t>(rm.model.num_vars()),
                            0.0);
      for (const auto& vars : rm.assign_vars) {
        ASSERT_EQ(static_cast<int>(vars.size()), n_pes);
        for (const int v : vars)
          x[static_cast<std::size_t>(v)] = 1.0 / static_cast<double>(n_pes);
      }
      const verify::Certificate cert =
          verify::certify_solution(rm.model, x, {}, /*relaxed=*/true);
      EXPECT_TRUE(cert.ok) << cert.summary();
    }
  }
}

TEST(StTarget, ResultIsWithinTheBracket) {
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[3]);
  const StTargetResult r = find_st_target(bench.design, bench.baseline);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.st_target, r.st_low - 1e-12);
  EXPECT_LE(r.st_target, r.st_up + 1e-12);
}

TEST(StTarget, PerfectlyBalanceableDesignReachesTheAverage) {
  // 4 identical ops in one context on a 2x2 fabric: every PE can take
  // exactly one, so the average *of used stress spread over all PEs* is
  // achievable... with one op per PE the max equals each op's stress.
  Design d{Fabric(2, 2), 1, {}, {}};
  Floorplan base;
  for (int i = 0; i < 4; ++i) {
    Operation op;
    op.id = i;
    op.kind = OpKind::kAdd;
    op.context = 0;
    d.ops.push_back(op);
    base.op_to_pe.push_back(i);
  }
  const StTargetResult r = find_st_target(d, base);
  ASSERT_TRUE(r.ok);
  // All PEs hold one op each: ST_low == ST_up == per-op stress.
  EXPECT_NEAR(r.st_target, r.st_low, 1e-9);
}

// A monotone oracle: feasible exactly at targets >= threshold. Counts its
// probes.
struct ThresholdOracle {
  double threshold;
  int probes = 0;
  bool operator()(double target) {
    ++probes;
    return target >= threshold;
  }
};

TEST(StTarget, TighterToleranceNeverWorsensTheBound) {
  ThresholdOracle loose_oracle{0.7316};
  ThresholdOracle tight_oracle{0.7316};
  const double t_loose =
      bisect_st_target(0.0, 1.0, 16, 0.10, std::ref(loose_oracle));
  const double t_tight =
      bisect_st_target(0.0, 1.0, 24, 0.01, std::ref(tight_oracle));
  EXPECT_GE(t_tight, 0.7316);
  EXPECT_LE(t_tight, t_loose + 1e-9);
  EXPECT_GT(tight_oracle.probes, loose_oracle.probes);
}

TEST(StTarget, ProbeCountIsBounded) {
  for (const int max_probes : {0, 1, 5, 16}) {
    ThresholdOracle oracle{0.3};
    bisect_st_target(0.0, 1.0, max_probes, 0.0, std::ref(oracle));
    EXPECT_EQ(oracle.probes, max_probes);
  }
}

TEST(StTarget, BisectEmptyBracketMakesNoProbe) {
  ThresholdOracle oracle{0.0};
  EXPECT_EQ(bisect_st_target(2.0, 2.0, 6, 0.0, std::ref(oracle)), 2.0);
  EXPECT_EQ(bisect_st_target(3.0, 2.0, 6, 0.0, std::ref(oracle)), 2.0);
  EXPECT_EQ(bisect_st_target(1.0, 2.0, 6, 1.0, std::ref(oracle)), 2.0);
  EXPECT_EQ(oracle.probes, 0);
}

TEST(StTarget, BisectNeverFeasibleReturnsHi) {
  ThresholdOracle never{1e300};
  EXPECT_EQ(bisect_st_target(0.25, 4.0, 6, 0.0, std::ref(never)), 4.0);
  EXPECT_EQ(never.probes, 6);
}

TEST(StTarget, BisectLandsWithinToleranceOfThreshold) {
  const double lo = 1.0, hi = 3.0;
  for (const double threshold : {1.001, 1.37, 2.0, 2.5, 2.999}) {
    for (const int max_probes : {1, 3, 6, 16}) {
      for (const double tol : {0.0, 0.04, 0.3}) {
        SCOPED_TRACE(testing::Message() << threshold << " " << max_probes
                                        << " " << tol);
        ThresholdOracle oracle{threshold};
        const double got =
            bisect_st_target(lo, hi, max_probes, tol, std::ref(oracle));
        const double width = (hi - lo) / std::ldexp(1.0, max_probes);
        EXPECT_GE(got, threshold);
        EXPECT_LE(got, threshold + std::max(tol, width));
        EXPECT_LE(oracle.probes, max_probes);
      }
    }
  }
}

}  // namespace
}  // namespace cgraf::core
