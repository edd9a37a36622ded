// Algorithm 1: the aging-aware re-mapping design flow (the paper's main
// contribution). Orchestrates Step 1 (the stress-target lower bound),
// Step 2.1 (critical-path freezing, optionally with rotation), Step 2.2
// (monitored path constraint generation), Step 2.3 (the Delta-relaxation
// solve loop with STA re-check) and Step 3 (MTTF computation).
#pragma once

#include <cstdint>
#include <string>

#include "aging/mttf.h"
#include "core/candidates.h"
#include "core/local_search.h"
#include "core/rotation.h"
#include "core/st_target.h"
#include "core/strategy.h"
#include "core/two_step.h"
#include "timing/paths.h"

namespace cgraf::core {

enum class RemapMode {
  kFreeze,  // critical-path ops pinned at their original PEs (Table I "Freeze")
  kRotate,  // critical paths re-oriented first (Table I "Rotate")
};

// Solver defaults tuned for the re-mapping models: they are feasibility
// problems, so branch & bound stops at the first incumbent, and node/time
// caps end a pathological attempt with that limit's status. The attempt
// proves nothing, but Algorithm 1's Delta relaxation treats it like any
// other failed attempt and relaxes the target.
inline TwoStepOptions default_remap_solver_options() {
  TwoStepOptions o;
  o.mip.stop_at_first_incumbent = true;
  o.mip.max_nodes = 20000;
  o.mip.time_limit_s = 120.0;
  o.lp.time_limit_s = 300.0;
  return o;
}

struct RemapOptions {
  RemapMode mode = RemapMode::kRotate;

  // Step 2.2: monitor paths within this fraction of the CPD (paper: 20%).
  double path_margin = 0.20;
  int max_monitored_paths = 1500;
  // Per-context cap on extracted critical paths (the frozen set is their
  // union).
  int max_critical_paths_per_context = 8;

  // Step 2.1 (Rotate) plans one rotation: the lowest-overlap of the
  // identity and this many diversity-rule draws (all 8^C plans when C <= 4;
  // core/rotation.h).
  int rotation_restarts = 12;

  // Incremental probe sessions (core/probe_session.h) for the LP presearch
  // and the Delta-relaxation retry loop: the remap model is built once per
  // geometry, only the stress-target rows are patched between attempts, and
  // each LP warm-starts from the previous attempt's basis. Off = every
  // probe rebuilds the model and solves cold, on the same code path.
  bool warm_probes = true;

  std::uint64_t seed = 1;

  CandidateOptions candidates{};
  StTargetOptions st_search{};
  TwoStepOptions solver = default_remap_solver_options();
  ObjectiveMode objective = ObjectiveMode::kMinPerturbation;

  // How each Delta-loop attempt is solved (core/strategy.h): the exact
  // MILP pipeline (dive / fix-once / ilp rounding), the shift/swap local
  // search alone, or the portfolio: the local search first, the MILP
  // pipeline only when it fails. The table's rounding mode overrides
  // solver.strategy.
  SolveStrategy strategy = SolveStrategy::kExactDive;
  // Local-search knobs for kLocalSearch and kPortfolio. The per-attempt
  // stream mixes ls.seed with the outer iteration so Delta-loop retries
  // explore differently but reproducibly.
  LocalSearchOptions ls{};

  aging::NbtiParams nbti{};
  thermal::ThermalParams thermal{};

  // Independent verification of every accepted result (verify/certify.h),
  // on by default: each attempt's floorplan is re-validated straight from
  // the cgrra data model (exclusivity, stress <= st_target, frozen ops
  // pinned, monitored paths within budget) and the solver-level solution
  // certificate is enabled too, both at the certifier's default
  // tolerances. Attempts that fail certification are rejected as if
  // infeasible.
  verify::VerifyOptions verify{.enabled = true};
};

struct RemapResult {
  bool improved = false;   // stress reduced with CPD held
  Floorplan floorplan;     // final floorplan (baseline when !improved)

  double cpd_before_ns = 0.0;
  double cpd_after_ns = 0.0;
  double st_max_before = 0.0;
  double st_max_after = 0.0;
  double st_avg = 0.0;           // fabric-wide average (ST_low): Step 1's
                                 // lower bound
  double st_target_final = 0.0;  // value that produced the result

  aging::MttfReport mttf_before;
  aging::MttfReport mttf_after;
  double mttf_gain = 1.0;  // MTTF_after / MTTF_before (Table I metric)

  // Per-attempt solver, local-search and portfolio counters live in the
  // solve-event log (opts.solver.events): the remap.attempt, twostep.solve,
  // ls.search and portfolio.result records that `cgraf_cli analyze` folds.
  int outer_iterations = 0;
  int num_frozen_ops = 0;
  int num_monitored_paths = 0;
  double seconds = 0.0;
  std::string note;  // human-readable outcome summary

  // Verification outcome (opts.verify.enabled): the returned floorplan
  // passed the independent cgrra-level certificate, and how many attempts
  // were thrown away because certification rejected them.
  bool certified = false;
  int certify_rejections = 0;
};

RemapResult aging_aware_remap(const Design& design, const Floorplan& baseline,
                              const RemapOptions& opts = {});

// Steps 2.1a and 2.2 on the original mapping, read from `opts`: the frozen
// ops are the union of each context's max_critical_paths_per_context
// critical paths, and the monitored paths are those within path_margin of
// the CPD, at most max_monitored_paths of them. The remapper and
// cgraf_cli's lint and certify all derive them here.
struct PathSets {
  std::vector<char> frozen;  // per op
  // Frozen ops per context, in extraction order: Rotate's groups.
  std::vector<std::vector<int>> frozen_by_context;
  std::vector<timing::TimingPath> monitored;
};
PathSets derive_path_sets(const timing::CombGraph& graph,
                          const Floorplan& baseline, const RemapOptions& opts);

}  // namespace cgraf::core
