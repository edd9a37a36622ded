// The paper's two-step MILP relaxation (Section V.B, Step 1 text):
//  1. solve the LP relaxation (every OP_ijk in [0,1]),
//  2. pre-map: fix variables with value > 0.95 to 1,
//  3. solve the residual ILP for the remaining operations.
//
// The alternative strategies the paper mentions (pure one-shot ILP, which
// "could not find a solution within 5 days" at scale, and randomized
// rounding, which "did not work as well") are selectable for the scaling
// and rounding ablation benches.
#pragma once

#include <atomic>

#include "core/model_builder.h"
#include "milp/branch_and_bound.h"
#include "verify/certify.h"

namespace cgraf::core {

enum class RoundingStrategy {
  // Iterated LP dive (default): repeat { solve LP; fix every assignment
  // with value > threshold; if none qualify, fix the single most-integral
  // op } with warm-started re-solves until every op is committed. This is
  // the paper's pre-mapping applied to a fixed point. A fix that breaks LP
  // feasibility is undone and banned; when the bans run out the dive gives
  // up on this st_target (kNodeLimit) and never runs branch & bound.
  kIterativeDive,
  kThresholdFixOnce,  // the paper's literal method: one fix pass, then ILP
  kRandomizedRound,   // ablation: sample candidate ~ LP weights, then ILP
  kNone,              // pure one-shot ILP (scaling baseline)
};

struct TwoStepOptions {
  RoundingStrategy strategy = RoundingStrategy::kIterativeDive;
  milp::LpOptions lp;
  milp::MipOptions mip;
  // Warm start for the first LP solved (the dive's root LP, or the one-pass
  // strategies' relaxation): a basis previously returned for a model with
  // the same shape, typically the previous probe of an incremental
  // ST_target session. Stale (wrong-sized) or singular bases are detected
  // inside the simplex engine and silently fall back to the cold slack
  // basis; stats.warm_start_used reports what actually happened. Not
  // owned — must outlive the solve.
  const std::vector<milp::ColStatus>* warm_basis = nullptr;
  // Independent re-validation of every accepted solution vector against the
  // model (verify/certify.h). A solution that fails certification is
  // rejected: the result degrades to kNumericalError instead of shipping an
  // illegal floorplan.
  verify::VerifyOptions verify;
  // Structured solve-event log (obs/event_log.h). Copied into lp.events and
  // mip.events when those are unset (B&B hands it to its node LPs), so one
  // pointer here covers every LP and B&B solve underneath, plus a
  // "twostep.solve" summary record per call.
  obs::EventLog* events = nullptr;
  // Cooperative cancellation, copied the same way into lp.cancel and
  // mip.cancel and checked between dive rounds. A cancelled solve reports
  // SolveStatus::kCancelled.
  const std::atomic<bool>* cancel = nullptr;
};

struct TwoStepStats {
  long lp_iterations = 0;
  long mip_nodes = 0;
  long mip_lp_iterations = 0;
  int dive_rounds = 0;
  int vars_fixed = 0;
  int vars_total = 0;
  double lp_seconds = 0.0;
  double mip_seconds = 0.0;
  milp::SolveStatus lp_status = milp::SolveStatus::kNumericalError;
  milp::SolveStatus mip_status = milp::SolveStatus::kNumericalError;
  // The one-pass fix (threshold or randomized) left an infeasible residual
  // ILP, so branch & bound re-solved the unfixed model.
  bool fallback_unfixed = false;
  int mip_threads = 1;            // worker threads of the last B&B run
  std::vector<long> mip_nodes_per_thread;
  milp::LpStageStats lp_stage;    // aggregated over every LP solved
  // opts.warm_basis was supplied and the first LP actually started from it
  // (false also when no warm basis was given).
  bool warm_start_used = false;
};

struct TwoStepResult {
  // kOptimal: integer floorplan found (or, from ProbeSession::solve_lp, the
  // LP relaxation is feasible).
  // kInfeasible: proven, no floorplan exists at this st_target.
  // A limit reports its own status and proves nothing: the LP's iteration
  // or time limit, a cancel, B&B's node cap, or kNodeLimit when the dive
  // spends its ban budget or its bans over-constrain the root.
  milp::SolveStatus status = milp::SolveStatus::kNumericalError;
  Floorplan floorplan;  // empty after an LP probe or when infeasible
  TwoStepStats stats;
  // Final basis of the last LP solved (empty when no LP ran, e.g. the pure
  // one-shot ILP strategy). Feed it back through opts.warm_basis to
  // warm-start the next solve of a same-shaped (e.g. RHS-patched) model.
  std::vector<milp::ColStatus> basis;
  // Verification outcome when opts.verify.enabled and a solution was
  // produced: certified == the independent re-check passed. On failure the
  // status is downgraded and the first issue is kept here.
  bool certified = false;
  std::string certify_error;
};

TwoStepResult solve_two_step(const RemapModel& rm, const TwoStepOptions& opts);

}  // namespace cgraf::core
