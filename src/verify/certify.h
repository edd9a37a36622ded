// Independent re-validation of solver output (the second half of the
// correctness wall; verify/model_lint.h is the first).
//
// certify_solution re-checks an LP/MILP solution vector against the model
// with compensated (Kahan) arithmetic: per-row feasibility within tolerance,
// variable bounds, integrality, and an objective recomputation. It shares no
// code with the simplex engine on purpose.
//
// certify_floorplan validates floorplan legality straight from the cgrra
// data model — without going through model_builder — so a model-construction
// bug cannot certify its own output: one op per PE per context, accumulated
// stress within ST_target, frozen critical-path ops unmoved (relative to
// whatever reference the caller passes, i.e. the rotated base in Rotate
// mode), and every monitored path within its wirelength budget.
#pragma once

#include <string>
#include <vector>

#include "cgrra/design.h"
#include "cgrra/floorplan.h"
#include "milp/model.h"
#include "timing/sta.h"

namespace cgraf::verify {

struct CertifyOptions {
  double tol_feas = 1e-6;      // row activity / variable bound tolerance
  double tol_int = 1e-6;       // integrality tolerance
  double tol_obj = 1e-6;       // objective mismatch tolerance (abs + rel)
  double tol_stress = 1e-9;    // accumulated-stress bound tolerance
  double tol_delay_ns = 1e-9;  // wirelength-budget tolerance, in ns
  int max_issues = 64;         // stop collecting after this many failures
};

struct CertifyIssue {
  std::string check;  // stable ID, e.g. "row-feasibility"
  std::string message;
};

struct Certificate {
  bool ok = true;
  std::vector<CertifyIssue> issues;
  // Worst violations seen (0 when the corresponding check passed).
  double max_row_violation = 0.0;
  double max_bound_violation = 0.0;
  double max_int_violation = 0.0;
  double objective = 0.0;  // recomputed with compensated arithmetic

  void fail(const CertifyOptions& opts, std::string check,
            std::string message);
  std::string summary() const;  // first issue, or "certified"
  std::string to_json() const;
};

// MILP-level: is `x` a (tolerance-)feasible point of `model`? Integrality is
// checked for binary/integer columns unless `relaxed` is set. When
// `claimed_obj` is non-null the recomputed objective must match it.
Certificate certify_solution(const milp::Model& model,
                             const std::vector<double>& x,
                             const CertifyOptions& opts = {},
                             bool relaxed = false,
                             const double* claimed_obj = nullptr);

// What a legal floorplan must satisfy, stated in cgrra terms only.
struct FloorplanSpec {
  const Design* design = nullptr;
  // Frozen ops must sit at reference->pe_of(op). Pass the rotated base when
  // certifying a Rotate-mode result. Null (or empty `frozen`) skips the
  // check.
  const Floorplan* reference = nullptr;
  std::vector<char> frozen;  // per op; empty = nothing frozen
  // Per-PE accumulated stress bound; negative disables the check.
  double st_target = -1.0;
  // Monitored paths and the CPD their wire budgets are derived from
  // (Eq. (5): wirelength <= (cpd - pe_delay) / unit_wire_delay). Null
  // disables the check.
  const std::vector<timing::TimingPath>* monitored = nullptr;
  double cpd_ns = 0.0;
};

Certificate certify_floorplan(const FloorplanSpec& spec, const Floorplan& fp,
                              const CertifyOptions& opts = {});

// Acceptance-path switch: pipeline stages re-validate what they accept (at
// the default CertifyOptions tolerances) when `enabled` is set, and reject
// results that fail certification.
struct VerifyOptions {
  bool enabled = false;
};

}  // namespace cgraf::verify
