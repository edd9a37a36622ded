// Differential harness for the incremental ST_target probes, over a seeded
// random fabric/context corpus: a ProbeSession with the remapper's
// presearch shape (frozen critical paths + monitored-path budgets, kNull LP
// probes) must answer a shared bisection ladder verdict-for-verdict like a
// cold session that rebuilds the model at every probe. Path
// constraints make ST_low genuinely infeasible here, so the ladders
// actually bisect and the warm session chains bases across probes. The
// sessions' probe.solve records, summed, reproduce their counters.
// Labeled `slow` — it runs a few hundred LP solves.
#include <gtest/gtest.h>

#include <cstdio>

#include "cgrra/stress.h"
#include "core/candidates.h"
#include "core/probe_session.h"
#include "obs/event_log.h"
#include "obs/postmortem.h"
#include "timing/paths.h"
#include "util/rng.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

std::vector<workloads::BenchmarkSpec> corpus(int count) {
  // Small, varied instances: 2..8 contexts, 3x3..6x6 fabrics, the full
  // usage range. Seeds drive both the shape draw and the netlist.
  std::vector<workloads::BenchmarkSpec> specs;
  Rng rng(0xd1ffu);
  for (int i = 0; i < count; ++i) {
    workloads::BenchmarkSpec s;
    s.name = "D" + std::to_string(i);
    s.contexts = 2 + static_cast<int>(rng.next_u64() % 7);
    s.fabric_dim = 3 + static_cast<int>(rng.next_u64() % 4);
    s.usage = 0.25 + 0.55 * rng.next_double();
    s.band = s.usage < 0.4   ? workloads::UsageBand::kLow
             : s.usage < 0.6 ? workloads::UsageBand::kMedium
                             : workloads::UsageBand::kHigh;
    s.seed = 0x5eed0000u + static_cast<std::uint64_t>(i);
    specs.push_back(std::move(s));
  }
  return specs;
}

// The remapper's presearch geometry for one benchmark: critical-path union
// frozen in place, monitored paths budgeted, candidates slack-pruned.
struct PresearchFixture {
  const Design* design;
  const Floorplan* base;
  std::vector<char> frozen;
  std::vector<timing::TimingPath> monitored;
  std::vector<std::vector<int>> candidates;
  double cpd_ns = 0.0;
  double st_low = 0.0;
  double st_up = 0.0;

  explicit PresearchFixture(const workloads::GeneratedBenchmark& bench)
      : design(&bench.design), base(&bench.baseline) {
    const timing::CombGraph graph(*design);
    const timing::StaResult sta = run_sta(graph, *base);
    cpd_ns = sta.cpd_ns;
    frozen.assign(static_cast<std::size_t>(design->num_ops()), 0);
    for (int c = 0; c < design->num_contexts; ++c) {
      for (const auto& p : timing::critical_paths(graph, *base, c, 8))
        for (const int op : p.ops) frozen[static_cast<std::size_t>(op)] = 1;
    }
    monitored = timing::monitored_paths(graph, *base);
    candidates =
        compute_candidates(*design, *base, frozen, monitored, cpd_ns);
    const StressMap stress = compute_stress(*design, *base);
    st_low = stress.avg_accumulated();
    st_up = stress.max_accumulated();
  }

  ProbeSession session(bool warm, obs::EventLog* events = nullptr) const {
    RemapModelSpec spec;
    spec.design = design;
    spec.base = base;
    spec.frozen = frozen;
    spec.candidates = candidates;
    spec.monitored = &monitored;
    spec.cpd_ns = cpd_ns;
    spec.objective = ObjectiveMode::kNull;
    TwoStepOptions solver;
    solver.events = events;
    return ProbeSession(std::move(spec), solver, warm);
  }
};

TEST(ProbeDifferential, SessionMatchesColdRebuildOnBisectionLadders) {
  int probes_total = 0;
  int warm_hits_total = 0;
  int infeasible_total = 0;
  // Every session records into one log; its probe.solve flags must sum to
  // the sessions' own counters.
  obs::EventLog log;
  log.open_memory();
  ProbeSessionStats sessions_total;
  for (const auto& spec : corpus(50)) {
    const auto bench = workloads::generate_benchmark(spec);
    const PresearchFixture fx(bench);
    if (fx.st_up <= 0.0) continue;
    ProbeSession warm = fx.session(true, &log);
    ProbeSession cold = fx.session(false, &log);

    // Both sessions walk the same ladder; the bisection branches on the
    // warm verdict, so a single divergence would snowball into different
    // targets — asserting per probe pins the exact first difference.
    double lo = fx.st_low;
    double hi = fx.st_up;
    for (int it = 0; it < 6; ++it) {
      const double mid = 0.5 * (lo + hi);
      const TwoStepResult rw = warm.solve_lp(mid);
      const TwoStepResult rc = cold.solve_lp(mid);
      const bool vw = rw.status == milp::SolveStatus::kOptimal;
      const bool vc = rc.status == milp::SolveStatus::kOptimal;
      ASSERT_EQ(vw, vc) << spec.name << " target " << mid << " warm="
                        << milp::to_string(rw.status) << " cold="
                        << milp::to_string(rc.status);
      infeasible_total += vw ? 0 : 1;
      if (vw) hi = mid;
      else lo = mid;
    }
    probes_total += warm.stats().probes;
    warm_hits_total += warm.stats().warm_hits;

    // Cold sessions rebuild per probe and never chain a basis.
    EXPECT_EQ(cold.stats().warm_hits, 0) << spec.name;
    EXPECT_EQ(cold.stats().basis_fallbacks, 0) << spec.name;
    EXPECT_EQ(cold.stats().model_rebuilds, cold.stats().probes) << spec.name;
    // Per warm probe at most one of: a full rebuild, a warm hit, or an
    // accounted fallback (probes rejected by patch_st_target are none of
    // the three — the frozen stress alone exceeded the target).
    EXPECT_LE(warm.stats().warm_hits + warm.stats().basis_fallbacks +
                  warm.stats().model_rebuilds,
              warm.stats().probes)
        << spec.name;
    EXPECT_GE(warm.stats().model_rebuilds, 1) << spec.name;
    for (const ProbeSession* session : {&warm, &cold}) {
      sessions_total.probes += session->stats().probes;
      sessions_total.warm_hits += session->stats().warm_hits;
      sessions_total.basis_fallbacks += session->stats().basis_fallbacks;
      sessions_total.model_rebuilds += session->stats().model_rebuilds;
      sessions_total.patches += session->stats().patches;
    }
  }
  log.close();
  obs::PostmortemReport report;
  std::string error;
  ASSERT_TRUE(obs::analyze_events(log.memory_contents(), &report, &error))
      << error;
  EXPECT_EQ(report.probes, sessions_total.probes);
  EXPECT_EQ(report.probe_warm_hits, sessions_total.warm_hits);
  EXPECT_EQ(report.probe_fallbacks, sessions_total.basis_fallbacks);
  EXPECT_EQ(report.probe_rebuilds, sessions_total.model_rebuilds);
  EXPECT_EQ(report.probe_patches, sessions_total.patches);
  // The corpus must actually bisect (both verdicts present) and the warm
  // path must actually chain bases — otherwise this test proves nothing.
  EXPECT_GT(probes_total, 100);
  EXPECT_GT(warm_hits_total, 0);
  EXPECT_GT(infeasible_total, 0);
  std::printf("[corpus] %d probes, %d warm hits, %d infeasible verdicts\n",
              probes_total, warm_hits_total, infeasible_total);
}

TEST(ProbeDifferential, ForcedColdProbeIsAFreshSessionsFirstProbe) {
  // A forced-cold session rebuilds and solves from the slack basis at every
  // probe, so each of its probes, LP or two-step, must be exactly the first
  // probe of a brand-new session at that target: same status, same LP
  // iterations.
  for (const auto& spec : corpus(6)) {
    const auto bench = workloads::generate_benchmark(spec);
    const PresearchFixture fx(bench);
    if (fx.st_up <= 0.0) continue;
    for (const bool lp : {true, false}) {
      ProbeSession cold = fx.session(false);
      double lo = fx.st_low;
      double hi = fx.st_up;
      for (int it = 0; it < 4; ++it) {
        const double mid = 0.5 * (lo + hi);
        ProbeSession fresh = fx.session(true);
        const TwoStepResult rc = lp ? cold.solve_lp(mid) : cold.solve(mid);
        const TwoStepResult rf = lp ? fresh.solve_lp(mid) : fresh.solve(mid);
        ASSERT_EQ(rc.status, rf.status)
            << spec.name << (lp ? " lp" : " two_step") << " target " << mid;
        EXPECT_EQ(rc.stats.lp_iterations, rf.stats.lp_iterations)
            << spec.name << (lp ? " lp" : " two_step") << " target " << mid;
        EXPECT_EQ(rc.stats.dive_rounds, rf.stats.dive_rounds) << spec.name;
        if (rc.status == milp::SolveStatus::kOptimal) hi = mid;
        else lo = mid;
      }
      EXPECT_EQ(cold.stats().model_rebuilds, cold.stats().probes)
          << spec.name;
      EXPECT_EQ(cold.stats().warm_hits, 0) << spec.name;
    }
  }
}

}  // namespace
}  // namespace cgraf::core
