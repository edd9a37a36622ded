// Post-mortem analysis of a structured solve-event log (obs/event_log.h).
//
// Reconstructs, from the JSONL event stream alone, what the solver pipeline
// did: the branch & bound tree (per-depth node/LP-iteration breakdown,
// action mix, pruning efficacy), the incumbent-improvement timeline, the
// ST_target probe chain with warm-hit rates, the Delta-relaxation attempt
// table, LP-iteration totals per record family, certificate rejections,
// exact percentiles and lock contention.
// The totals are exact — every LP solve and every counted B&B node emits
// exactly one record — so `cgraf_cli analyze` can be cross-checked against
// the in-process solver stats. The same stream renders as a Chrome trace
// (chrome_trace below).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/sync.h"

namespace cgraf::obs {

struct PostmortemReport {
  // --- log.header ---------------------------------------------------------
  bool have_header = false;
  long schema = 0;
  std::string git_sha;
  std::string compiler;

  long total_records = 0;
  // Record counts per type, insertion-free (sorted by type name).
  std::map<std::string, long> records_by_type;

  // --- lp.solve ----------------------------------------------------------
  long lp_solves = 0;
  long lp_iterations = 0;        // sum over every LP solved anywhere
  long lp_phase1_iterations = 0;
  long lp_dual_iterations = 0;
  long lp_bound_flips = 0;
  long lp_refactorizations = 0;
  long lp_dual_fallbacks = 0;
  long lp_warm_used = 0;
  long lp_dual_used = 0;
  double lp_seconds = 0.0;
  // Kernel seconds (LpStageStats) inside lp_seconds; logs written before
  // lp.solve carried them fold to 0.
  double lp_factor_seconds = 0.0;
  double lp_ftran_seconds = 0.0;
  double lp_btran_seconds = 0.0;
  double lp_pricing_seconds = 0.0;
  double lp_dse_seconds = 0.0;
  // lp_seconds minus the kernel seconds: setup, ratio tests, x updates.
  double lp_unattributed_seconds() const {
    return lp_seconds - (lp_factor_seconds + lp_ftran_seconds +
                         lp_btran_seconds + lp_pricing_seconds +
                         lp_dse_seconds);
  }

  // --- bnb.* -------------------------------------------------------------
  struct DepthRow {
    long nodes = 0;
    long lp_iters = 0;
    long branches = 0;
    long prunes = 0;      // bound-pruned after their LP
    long integrals = 0;
    long infeasibles = 0;
  };
  long bnb_solves = 0;            // bnb.begin records
  long bnb_nodes = 0;             // bnb.node records == MipResult::nodes sum
  long bnb_node_lp_iters = 0;     // sum of per-node lp_iters
  long bnb_pool_prunes = 0;       // bnb.pool_prune records
  long bnb_pool_dropped = 0;      // nodes discarded without an LP solve
  std::map<int, DepthRow> by_depth;
  std::map<std::string, long> node_actions;

  struct Incumbent {
    double t_us = 0.0;
    long seq = 0;
    double obj = 0.0;
  };
  std::vector<Incumbent> incumbents;

  // --- probe.solve -------------------------------------------------------
  struct Probe {
    double t_us = 0.0;
    double target = 0.0;
    std::string mode;
    std::string status;
    bool warm_hit = false;
    bool fallback = false;
    long lp_iterations = 0;
    double seconds = 0.0;
  };
  long probes = 0;
  long probe_warm_hits = 0;       // == ProbeSessionStats::warm_hits sum
  long probe_fallbacks = 0;
  long probe_rebuilds = 0;
  long probe_patches = 0;
  std::vector<Probe> probe_chain;

  // --- st.* / twostep.solve / remap.* ------------------------------------
  long st_searches = 0;           // st.search_end records
  long twostep_solves = 0;
  long remap_runs = 0;            // remap.end records
  long remap_attempts = 0;
  long remap_attempts_cpd_ok = 0;
  // remap.attempt seconds split by verdict: attempts whose floorplan passed
  // the STA re-check, and every other attempt (solver failure, certificate
  // rejection, CPD growth).
  double remap_attempt_ok_seconds = 0.0;
  double remap_attempt_failed_seconds = 0.0;
  struct Attempt {
    double t_us = 0.0;
    long iter = 0;
    double st_target = 0.0;
    std::string strategy;
    std::string status;
    bool cpd_ok = false;
    double seconds = 0.0;
    std::string certify_error;  // empty unless certification rejected it
  };
  std::vector<Attempt> attempts;  // in emission order

  // --- ls.search / portfolio.result ---------------------------------------
  long ls_searches = 0;           // ls.search records
  long ls_moves_examined = 0;
  long ls_moves_accepted = 0;
  long ls_oracle_calls = 0;
  long ls_oracle_rejections = 0;
  long ls_start_repairs = 0;
  long portfolio_races = 0;       // portfolio.result records
  long portfolio_exact_wins = 0;
  long portfolio_ls_wins = 0;

  // --- certificate gates ---------------------------------------------------
  // Solver solutions rejected by certify_solution: twostep.solve and
  // probe.solve `certify_rejected` flags (each gate sets only its own).
  long solution_rejections = 0;
  // Floorplans rejected by certify_floorplan: remap.end
  // `certify_rejections`.
  long floorplan_rejections = 0;

  // --- exact percentiles (nearest rank) ------------------------------------
  struct Percentiles {
    long count = 0;
    long p50 = 0, p90 = 0, p99 = 0;
  };
  Percentiles node_lp_iters;  // bnb.node lp_iters
  Percentiles dive_rounds;    // twostep.solve dive_rounds of solves that dived

  // --- sync.mutex: the latest snapshot per mutex name ----------------------
  std::map<std::string, MutexStats> locks;

  // Lines that failed to parse (offset = 1-based line number).
  std::vector<std::pair<long, std::string>> parse_errors;

  // Human-readable report (aligned tables).
  std::string to_text() const;
  // Machine-readable report (one JSON object).
  std::string to_json() const;
};

// Analyzes a whole JSONL event stream held in memory. Unknown record types
// are counted but otherwise skipped (forward compatibility); unparseable
// lines land in parse_errors without aborting. Returns false (with *error)
// only when the stream is unusable: empty, or a log.header with a schema
// newer than kEventLogSchemaVersion.
bool analyze_events(const std::string& jsonl, PostmortemReport* report,
                    std::string* error);

// Renders a JSONL event stream as a Chrome trace-event document
// (chrome://tracing, Perfetto). A record is stamped at its end `t` (µs): one
// carrying `seconds` becomes a complete ('X') span starting at
// t - 1e6 * seconds, any other an instant ('i'). The record's `tid` is its
// lane and the whole record its args. Unparseable lines are skipped (the
// analyzer reports them).
std::string chrome_trace(const std::string& jsonl);

}  // namespace cgraf::obs
