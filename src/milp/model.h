// Mixed-integer linear programming model container.
//
// This is the modeling surface the floorplanner (src/core) builds the paper's
// formulation (3) on. It deliberately mirrors the shape of the CPLEX/PuLP
// API the paper used: variables with bounds and a type, ranged linear
// constraints, and an optional linear objective ("ObjFunc: Null" in the
// paper is expressed by leaving all objective coefficients at zero).
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace cgraf::milp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class VarType { kContinuous, kBinary, kInteger };

enum class Sense { kMinimize, kMaximize };

struct Variable {
  double lb = 0.0;
  double ub = kInf;
  double obj = 0.0;
  VarType type = VarType::kContinuous;
  std::string name;
};

// One ranged constraint: lb <= sum(coeff_i * x_i) <= ub. Equalities use
// lb == ub; one-sided rows use +/-kInf.
struct Constraint {
  std::vector<std::pair<int, double>> terms;  // (variable index, coefficient)
  double lb = -kInf;
  double ub = kInf;
  std::string name;
};

class Model {
 public:
  // Returns the new variable's index.
  int add_var(double lb, double ub, double obj, VarType type,
              std::string name = {});
  int add_continuous(double lb, double ub, double obj = 0.0,
                     std::string name = {}) {
    return add_var(lb, ub, obj, VarType::kContinuous, std::move(name));
  }
  int add_binary(double obj = 0.0, std::string name = {}) {
    return add_var(0.0, 1.0, obj, VarType::kBinary, std::move(name));
  }

  // Returns the new constraint's index. Duplicate variable indices in
  // `terms` are merged (coefficients summed).
  int add_constraint(std::vector<std::pair<int, double>> terms, double lb,
                     double ub, std::string name = {});
  int add_le(std::vector<std::pair<int, double>> terms, double rhs,
             std::string name = {}) {
    return add_constraint(std::move(terms), -kInf, rhs, std::move(name));
  }
  int add_ge(std::vector<std::pair<int, double>> terms, double rhs,
             std::string name = {}) {
    return add_constraint(std::move(terms), rhs, kInf, std::move(name));
  }
  int add_eq(std::vector<std::pair<int, double>> terms, double rhs,
             std::string name = {}) {
    return add_constraint(std::move(terms), rhs, rhs, std::move(name));
  }

  // Tighten an existing variable's bounds (used by branch & bound and by
  // the LP-rounding pre-mapping step).
  void set_bounds(int var, double lb, double ub);
  // Re-range an existing constraint (RHS patch). The row's terms are
  // untouched, so the model stays canonical and any computational form
  // built from it keeps its sparsity pattern — the incremental ST_target
  // probes patch only the stress rows' bounds between solves.
  void set_constraint_bounds(int row, double lb, double ub);
  void set_obj(int var, double coeff);
  // Relax an integer/binary variable to continuous (paper's Step-1 linear
  // relaxation is expressed by copying the model and relaxing all).
  void relax_var(int var);

  Sense sense() const { return sense_; }
  void set_sense(Sense s) { sense_ = s; }

  int num_vars() const { return static_cast<int>(vars_.size()); }
  int num_constraints() const { return static_cast<int>(cons_.size()); }
  const Variable& var(int i) const { return vars_[static_cast<size_t>(i)]; }
  const Constraint& constraint(int i) const {
    return cons_[static_cast<size_t>(i)];
  }
  const std::vector<Variable>& vars() const { return vars_; }
  const std::vector<Constraint>& constraints() const { return cons_; }

  // Evaluates all constraints and bounds at `x`; returns the maximum
  // violation (0 means feasible). Integrality is checked when
  // `check_integrality` is set.
  double max_violation(const std::vector<double>& x,
                       bool check_integrality = false) const;

  // Objective value at `x` (in the model's own sense; no sign flip).
  double objective_value(const std::vector<double>& x) const;

 private:
  std::vector<Variable> vars_;
  std::vector<Constraint> cons_;
  Sense sense_ = Sense::kMinimize;
};

}  // namespace cgraf::milp
