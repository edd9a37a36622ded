// Bit pins for whole Algorithm-1 remaps. Each case runs one Table-I remap
// end to end (Step 1, Freeze/Rotate, monitored paths, the Delta loop with
// its STA re-check, MTTF) and pins what a caller sees of the result: the
// bits of st_target_final and mttf_gain, an FNV-1a hash of op_to_pe and
// the attempt count. A refactor that claims unchanged outcomes has to
// match them bit for bit. The options mirror remap_e2e's: solver and LS
// seeds tied to the spec seed, one B&B thread, verification on, so the
// dive and LS pins are also outcomes of its dive_1t and ls_fleet remaps.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "core/remapper.h"
#include "obs/event_log.h"
#include "obs/json_reader.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

struct Pin {
  std::uint64_t st_target_final_bits;
  std::uint64_t mttf_gain_bits;
  std::uint64_t floorplan_hash;
  int outer_iterations;
};

// FNV-1a over op_to_pe, one 64-bit word per op (remap_e2e's fp_hash).
std::uint64_t floorplan_hash(const Floorplan& fp) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const int pe : fp.op_to_pe) {
    const auto x = static_cast<std::uint64_t>(pe);
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

workloads::BenchmarkSpec table1_spec(const std::string& name) {
  for (const workloads::BenchmarkSpec& s : workloads::table1_specs())
    if (s.name == name) return s;
  ADD_FAILURE() << "no Table-I spec " << name;
  return {};
}

// `o` carries any other option a case needs; the pinned ones are set here.
RemapResult run(const workloads::BenchmarkSpec& spec, RemapMode mode,
                SolveStrategy strategy, RemapOptions o = {}) {
  const workloads::GeneratedBenchmark bench =
      workloads::generate_benchmark(spec);
  o.mode = mode;
  o.strategy = strategy;
  o.solver.mip.num_threads = 1;
  o.st_search.solver.mip.num_threads = 1;
  o.seed = spec.seed;
  o.ls.seed = spec.seed;
  o.verify.enabled = true;
  return aging_aware_remap(bench.design, bench.baseline, o);
}

void expect_pinned(const RemapResult& r, const Pin& pin) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.st_target_final),
            pin.st_target_final_bits)
      << "st_target_final " << r.st_target_final;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.mttf_gain), pin.mttf_gain_bits)
      << "mttf_gain " << r.mttf_gain;
  EXPECT_EQ(floorplan_hash(r.floorplan), pin.floorplan_hash);
  EXPECT_EQ(r.outer_iterations, pin.outer_iterations);
}

TEST(RemapPins, DiveB19Freeze) {
  expect_pinned(run(table1_spec("B19"), RemapMode::kFreeze,
                    SolveStrategy::kExactDive),
                {0x3fe56cf04ea4a8c2ULL, 0x3ffd79109b59276fULL,
                 0x40d83cab60ee232dULL, 5});
}

TEST(RemapPins, DiveB19Rotate) {
  expect_pinned(run(table1_spec("B19"), RemapMode::kRotate,
                    SolveStrategy::kExactDive),
                {0x3fe3a4b313be22e5ULL, 0x400008023b980bb7ULL,
                 0x7937039260395ecdULL, 5});
}

// Rotate presearches its one rotation plan and the identity geometry and
// keeps the lower LP target, here the rotation's; the Delta loop then
// refines by bisection.
TEST(RemapPins, DiveB11Rotate) {
  expect_pinned(run(table1_spec("B11"), RemapMode::kRotate,
                    SolveStrategy::kExactDive),
                {0x3fe94ea3245c81c6ULL, 0x3ffca3ac4d4c6af1ULL,
                 0x232fcd2c57696fc8ULL, 6});
}

// The other branch of that choice: under default options B13's rotation
// plan moves frozen ops, but the identity geometry's LP target is lower, so
// Rotate runs Freeze's Delta loop and returns Freeze's floorplan.
TEST(RemapPins, DiveB13RotateKeepsIdentityGeometry) {
  const workloads::GeneratedBenchmark bench =
      workloads::generate_benchmark(table1_spec("B13"));
  RemapOptions o;
  o.solver.mip.num_threads = 1;
  o.st_search.solver.mip.num_threads = 1;

  const timing::CombGraph graph(bench.design);
  const PathSets paths = derive_path_sets(graph, bench.baseline, o);
  RotationOptions ropts;
  ropts.restarts = o.rotation_restarts;
  ropts.seed = o.seed + 0x100;  // the remapper's rotation seed
  const RotationResult plan = rotate_critical_paths(
      bench.design, bench.baseline, paths.frozen_by_context, ropts);
  ASSERT_TRUE(plan.ok);
  EXPECT_NE(plan.rotated_base.op_to_pe, bench.baseline.op_to_pe);

  o.mode = RemapMode::kFreeze;
  const RemapResult freeze = aging_aware_remap(bench.design, bench.baseline, o);
  o.mode = RemapMode::kRotate;
  const RemapResult rotate = aging_aware_remap(bench.design, bench.baseline, o);
  ASSERT_TRUE(freeze.improved);
  EXPECT_EQ(floorplan_hash(rotate.floorplan), floorplan_hash(freeze.floorplan));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rotate.st_target_final),
            std::bit_cast<std::uint64_t>(freeze.st_target_final));
  EXPECT_EQ(rotate.outer_iterations, freeze.outer_iterations);
  EXPECT_EQ(freeze.outer_iterations, 5);
}

TEST(RemapPins, FixOnceB19FreezeOneThread) {
  expect_pinned(run(table1_spec("B19"), RemapMode::kFreeze,
                    SolveStrategy::kExactFixOnce),
                {0x3fe3f669fbe76c8cULL, 0x3fff7b3e71fcd60dULL,
                 0xad3eeb2d3ad4972fULL, 1});
}

TEST(RemapPins, LocalSearchB13Rotate) {
  expect_pinned(run(table1_spec("B13"), RemapMode::kRotate,
                    SolveStrategy::kLocalSearch),
                {0x3feb80f9c52e72daULL, 0x4001f5032660ad78ULL,
                 0x800196964847df0bULL, 5});
}

// remap_e2e's B25 variant 2 (ls_fleet): no attempt improves on the
// baseline, so the remapper hands the baseline back.
TEST(RemapPins, LocalSearchB25Variant2RotateKeepsBaseline) {
  workloads::BenchmarkSpec spec = table1_spec("B25");
  spec.name += ".v2";
  spec.seed = 0x83676b41e6cf0a62ULL;
  expect_pinned(run(spec, RemapMode::kRotate, SolveStrategy::kLocalSearch),
                {0x400b5afb7f067d2dULL, 0x3ff0000000000000ULL,
                 0xaf34eea9144087caULL, 9});
}

// The portfolio runs the local search first and the dive only on attempts
// the local search fails, so here it returns the LS pin. In one of its
// attempts the local search fails and the dive runs to node-limit.
TEST(RemapPins, PortfolioB13RotateMatchesLocalSearch) {
  expect_pinned(run(table1_spec("B13"), RemapMode::kRotate,
                    SolveStrategy::kPortfolio),
                {0x3feb80f9c52e72daULL, 0x4001f5032660ad78ULL,
                 0x800196964847df0bULL, 5});
}

// A local search that examines no move fails every attempt, so the
// portfolio is the dive on the same probe session: DiveB19Freeze's pin,
// with every portfolio.result naming the exact side or neither.
TEST(RemapPins, PortfolioWithStarvedLsMatchesDiveB19Freeze) {
  obs::EventLog log;
  log.open_memory();
  RemapOptions o;
  o.solver.events = &log;
  o.ls.max_iters = 0;
  o.ls.restarts = 1;
  const RemapResult r = run(table1_spec("B19"), RemapMode::kFreeze,
                            SolveStrategy::kPortfolio, o);
  log.close();
  expect_pinned(r, {0x3fe56cf04ea4a8c2ULL, 0x3ffd79109b59276fULL,
                    0x40d83cab60ee232dULL, 5});

  int exact = 0, none = 0;
  std::istringstream lines(log.memory_contents());
  for (std::string line; std::getline(lines, line);) {
    obs::JsonValue rec;
    std::string error;
    ASSERT_TRUE(obs::parse_json(line, &rec, &error)) << error;
    if (rec.str_or("type", "") != "portfolio.result") continue;
    const std::string winner = rec.str_or("winner", "");
    EXPECT_TRUE(winner == "exact" || winner == "none") << line;
    exact += winner == "exact";
    none += winner == "none";
  }
  EXPECT_EQ(exact, 3);
  EXPECT_EQ(none, 2);
}

}  // namespace
}  // namespace cgraf::core
