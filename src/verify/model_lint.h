// Static analysis of milp::Model instances before they reach the solver.
//
// The floorplanner's correctness story has two halves: the model we hand to
// the solver must state formulation (3) faithfully, and the solution the
// solver returns must actually satisfy it (verify/certify.h). This header
// covers the first half with structural and numerical lint rules; findings
// carry a stable rule ID so tests and CI can match on them.
#pragma once

#include <string>
#include <vector>

#include "milp/model.h"

namespace cgraf::verify {

enum class Severity { kError, kWarn, kInfo };

const char* to_string(Severity s);

struct LintFinding {
  std::string rule;  // stable ID, e.g. "ML005"
  Severity severity = Severity::kInfo;
  std::string message;
  int row = -1;  // constraint index; -1 when not row-scoped
  int col = -1;  // variable index; -1 when not column-scoped
  // Source location, used by the code-level rules (CL*, tools/cgraf_lint)
  // where findings point at files rather than model rows. Empty/-1 for the
  // model/input rule families.
  std::string file;
  int line = -1;
};

struct LintOptions {
  // ML010: warn when max|a_ij| / min|a_ij| over all nonzero constraint
  // coefficients exceeds this ratio (simplex conditioning risk).
  double max_coeff_ratio = 1e8;
  // Info-severity rules are numerous on big models; the debug-assert wiring
  // in model_builder only cares about errors either way.
  bool include_info = true;
};

struct LintReport {
  std::vector<LintFinding> findings;
  int errors = 0;
  int warnings = 0;
  int infos = 0;

  bool clean() const { return errors == 0; }
  void add(std::string rule, Severity severity, std::string message,
           int row = -1, int col = -1);
  // Source-located variant used by the code-level (CL) rules.
  void add_at(std::string rule, Severity severity, std::string message,
              std::string file, int line);
  void merge(const LintReport& other);
  // {"errors":N,"warnings":N,"infos":N,"findings":[{...},...]}
  std::string to_json() const;
  // One "severity RULE message (row R / col C)" line per finding.
  std::string to_text() const;
};

// General rule catalog (model-agnostic):
//   ML001 error  empty or non-finite variable bound window (lb > ub, NaN)
//   ML002 error  non-finite constraint or objective coefficient
//   ML003 warn   binary variable with bounds outside [0,1];
//         error  when the bound window contains no integer point
//   ML004 info   constraint with no terms (vacuous)
//   ML005 error  constant-infeasible row: no terms and 0 outside [lb,ub]
//   ML006 error  duplicate column within one constraint row
//   ML007 warn   duplicate row (identical terms, coefficients and bounds)
//   ML008 info   dominated row (identical terms, strictly looser bounds)
//   ML009 info   column that appears in no constraint and has zero
//                objective (free to drift; usually a modelling leftover)
//   ML010 warn   coefficient magnitude ratio exceeds max_coeff_ratio
//   ML011 error  row infeasible against the variable bounds alone
//   ML012 info   row redundant against the variable bounds alone
LintReport lint_model(const milp::Model& model, const LintOptions& opts = {});

// Expected shape of one formulation-(3) re-mapping model. The model builder
// fills this from its own bookkeeping (core/model_builder.h names the rows
// "assign[op]" / "excl[ctx,pe]" / "stress[pe]" / "path[k]"), so the linter
// can check the paper-specific structure without re-deriving it.
struct FormulationSpec {
  int num_pes = 0;
  // Per op: the model columns of its assignment variables (empty = frozen).
  std::vector<std::vector<int>> assign_vars;
  // Per op: the candidate PE behind each assignment variable, aligned with
  // assign_vars.
  std::vector<std::vector<int>> candidates;
  int num_path_rows = 0;        // wirelength-budget rows actually emitted
  int num_monitored_paths = 0;  // paths eligible for a budget row
};

// Formulation-(3) rule catalog (requires builder row names):
//   FL001 error  free op without exactly one "assign[op]" partition row
//   FL002 error  assignment row with wrong variables, coefficients or rhs
//   FL003 error  assignment variable that is not binary
//   FL004 error  candidate PE whose stress row is missing, or misses one of
//                the variables that can place stress on it
//   FL005 error  wirelength-budget row count disagrees with the builder's
//                bookkeeping or exceeds the monitored-path count
LintReport lint_formulation(const milp::Model& model,
                            const FormulationSpec& spec,
                            const LintOptions& opts = {});

}  // namespace cgraf::verify
