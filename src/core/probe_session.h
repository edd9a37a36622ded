// Incremental ST_target probe solving.
//
// The remapper's LP presearch and its Delta-relaxation retry loop both
// solve a *sequence* of near-identical models: between two probes only the
// stress rows' right-hand side (`ST_target`) changes. A ProbeSession builds
// the RemapModel once, patches only those rows between probes
// (RemapModel::patch_st_target), keeps one SimplexEngine alive across
// LP-relaxation probes so the computational form is standardized once, and
// warm-starts every solve from the previous probe's returned basis —
// falling back to the cold slack basis whenever the chained basis is stale
// or its factorization singular. With warm == false every probe rebuilds
// the model and drops the engine and the chained basis first, then runs
// the same code: the cold reference the differential tests compare with.
#pragma once

#include <memory>
#include <vector>

#include "core/model_builder.h"
#include "core/two_step.h"
#include "milp/simplex.h"

namespace cgraf::core {

struct ProbeSessionStats {
  int probes = 0;
  // Solves that actually started from the previous probe's basis.
  int warm_hits = 0;
  // A chained basis was available but abandoned for the slack basis
  // (engine-side rejection of a stale/singular basis, or a numerical-error
  // retry).
  int basis_fallbacks = 0;
  // Full build_remap_model calls (the first build counts; warm sessions
  // rebuild only when a trivially-infeasible model must be re-attempted at
  // a different target).
  int model_rebuilds = 0;
  // RHS-only patches that replaced a rebuild.
  int patches = 0;
};

class ProbeSession {
 public:
  // `spec.st_target` is ignored; every probe supplies its own target. The
  // pointers inside `spec` (design, base floorplan, monitored paths) are
  // borrowed and must outlive the session.
  ProbeSession(RemapModelSpec spec, TwoStepOptions solver, bool warm = true);

  // The LP relaxation at `st_target` (the presearch's probe): kOptimal when
  // it is feasible, with the LP point certified when solver.verify is on.
  TwoStepResult solve_lp(double st_target);
  // The two-step integer attempt at `st_target` (the Delta loop's probe).
  // Both are verdict-identical to a cold rebuild at the same target.
  TwoStepResult solve(double st_target);

  const ProbeSessionStats& stats() const { return stats_; }
  // The session's model as of the last solve (valid once a probe ran).
  const RemapModel& model() const { return rm_; }

 private:
  // One probe: ensure_model, then the LP probe or the two-step solve, and
  // the probe.solve record.
  TwoStepResult probe(double st_target, bool lp);
  // Brings rm_ (and the persistent engine's row bounds) to `target`.
  // Returns false when the target is trivially infeasible.
  bool ensure_model(double target);
  TwoStepResult lp_probe();
  TwoStepResult two_step_probe();

  RemapModelSpec spec_;
  TwoStepOptions solver_;
  bool warm_ = true;
  RemapModel rm_;
  bool built_ = false;
  std::unique_ptr<milp::SimplexEngine> engine_;  // LP probes only
  std::vector<milp::ColStatus> basis_;           // last returned basis
  ProbeSessionStats stats_;
};

}  // namespace cgraf::core
