// Builds the paper's formulation (3) as a milp::Model.
//
//   ObjFunc: Null
//   s.t.  sum_ij OP_ijk * ST(OP_ij) <= ST_target          (per PE k)
//         sum_k  OP_ijk             = 1                   (per op ij)
//         OP on a critical path is frozen at PE_k_orig
//         per monitored path: sum wirelength <= (CPD - sum PEdelay)/uwd
//   plus the physically-required one-op-per-PE-per-context rows.
//
// Wire lengths between two *free* ops are linearized exactly with per-op
// coordinate variables cx_j = sum_k OP_ijk * col(k) (cy likewise) and
// per-edge |.| splitting — valid because the path constraints only
// upper-bound sums of L1 distances. Edges with a frozen endpoint use the
// direct linear form sum_k OP_ijk * dist(k, frozen_pe).
#pragma once

#include <string>
#include <vector>

#include "cgrra/design.h"
#include "cgrra/floorplan.h"
#include "cgrra/stress.h"
#include "milp/model.h"
#include "timing/paths.h"
#include "verify/model_lint.h"

namespace cgraf::core {

enum class ObjectiveMode {
  // The paper's "ObjFunc: Null": pure feasibility. The LP relaxation then
  // terminates at an arbitrary (often very fractional) feasible point,
  // which weakens the >0.95 pre-mapping step.
  kNull,
  // Minimize total displacement (Manhattan distance of each op from its
  // original PE). Selects a minimally-perturbed vertex among the feasible
  // floorplans; the LP vertex is near-integral, so the paper's fixing step
  // commits most operations and the residual ILP stays small. The stress
  // target and path budgets are hard constraints either way, so the
  // achieved balance is identical; see bench/ablation_rounding.
  kMinPerturbation,
};

struct RemapModelSpec {
  const Design* design = nullptr;
  // Carries every op's current position; for frozen ops this is their final
  // (possibly rotated) binding.
  const Floorplan* base = nullptr;
  std::vector<char> frozen;                   // per op
  std::vector<std::vector<int>> candidates;   // per op (frozen: exactly 1)
  double st_target = 0.0;
  // Monitored paths (constraint set); nullptr disables path constraints
  // (Step 1 of Algorithm 1 is delay-unaware; core/st_target.h takes that
  // model's LP bound in closed form).
  const std::vector<timing::TimingPath>* monitored = nullptr;
  double cpd_ns = 0.0;  // budget reference; required when monitored != null
  ObjectiveMode objective = ObjectiveMode::kMinPerturbation;
};

struct RemapModel {
  milp::Model model;
  // assign_vars[op][c] is the model variable for binding `op` to
  // candidates[op][c]; empty for frozen ops.
  std::vector<std::vector<int>> assign_vars;
  std::vector<std::vector<int>> candidates;  // post-filtering copy
  std::vector<char> frozen;
  const Design* design = nullptr;
  const Floorplan* base = nullptr;

  // Set when the spec is provably infeasible before any solve (e.g. a
  // frozen PE already exceeds st_target, or an all-frozen monitored path
  // exceeds its wire budget after rotation).
  bool trivially_infeasible = false;
  std::string infeasible_reason;

  int num_binary_vars = 0;
  int num_path_rows = 0;
  int num_monitored_paths = 0;

  // The stress target the model was built (or last patched) for, plus the
  // bookkeeping patch_st_target needs: the model row carrying each PE's
  // stress constraint (-1 when the PE has none) and the stress contributed
  // by frozen ops, which the row's RHS nets out.
  double st_target = 0.0;
  std::vector<int> stress_rows;       // per PE; empty when trivially infeasible
  std::vector<double> frozen_stress;  // per PE

  // Re-ranges the stress rows for a new target without rebuilding anything
  // else — the incremental presearch/Delta-loop probes lean on this. Returns
  // false (leaving the model at its previous target) when the new target is
  // trivially infeasible because a frozen PE's stress alone exceeds it; the
  // caller reports infeasibility without a solve, exactly as a cold rebuild
  // would. Must not be called on a trivially-infeasible model. In debug
  // builds the patched model is re-linted like a fresh build.
  bool patch_st_target(double new_target);

  // Decodes a solver solution vector into a complete floorplan (frozen ops
  // keep their base binding).
  Floorplan decode(const std::vector<double>& x) const;

  // Expected formulation-(3) shape for verify::lint_formulation, taken from
  // the builder's own bookkeeping.
  verify::FormulationSpec formulation_spec() const;
};

RemapModel build_remap_model(const RemapModelSpec& spec);

}  // namespace cgraf::core
