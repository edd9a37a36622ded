#include "milp/model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cgraf::milp {

int Model::add_var(double lb, double ub, double obj, VarType type,
                   std::string name) {
  CGRAF_ASSERT(lb <= ub);
  CGRAF_ASSERT(!std::isnan(lb) && !std::isnan(ub) && !std::isnan(obj));
  vars_.push_back(Variable{lb, ub, obj, type, std::move(name)});
  return static_cast<int>(vars_.size()) - 1;
}

int Model::add_constraint(std::vector<std::pair<int, double>> terms, double lb,
                          double ub, std::string name) {
  CGRAF_ASSERT(lb <= ub);
  // Merge duplicate indices and drop exact zeros so downstream sparse
  // structures stay canonical.
  std::sort(terms.begin(), terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<int, double>> merged;
  merged.reserve(terms.size());
  for (const auto& [idx, coeff] : terms) {
    CGRAF_ASSERT(idx >= 0 && idx < num_vars());
    if (!merged.empty() && merged.back().first == idx) {
      merged.back().second += coeff;
    } else {
      merged.emplace_back(idx, coeff);
    }
  }
  std::erase_if(merged, [](const auto& t) { return t.second == 0.0; });
  cons_.push_back(Constraint{std::move(merged), lb, ub, std::move(name)});
  return static_cast<int>(cons_.size()) - 1;
}

void Model::set_bounds(int var, double lb, double ub) {
  CGRAF_ASSERT(var >= 0 && var < num_vars());
  CGRAF_ASSERT(lb <= ub);
  vars_[static_cast<size_t>(var)].lb = lb;
  vars_[static_cast<size_t>(var)].ub = ub;
}

void Model::set_constraint_bounds(int row, double lb, double ub) {
  CGRAF_ASSERT(row >= 0 && row < num_constraints());
  CGRAF_ASSERT(lb <= ub);
  CGRAF_ASSERT(!std::isnan(lb) && !std::isnan(ub));
  cons_[static_cast<size_t>(row)].lb = lb;
  cons_[static_cast<size_t>(row)].ub = ub;
}

void Model::set_obj(int var, double coeff) {
  CGRAF_ASSERT(var >= 0 && var < num_vars());
  vars_[static_cast<size_t>(var)].obj = coeff;
}

void Model::relax_var(int var) {
  CGRAF_ASSERT(var >= 0 && var < num_vars());
  vars_[static_cast<size_t>(var)].type = VarType::kContinuous;
}

double Model::max_violation(const std::vector<double>& x,
                            bool check_integrality) const {
  CGRAF_ASSERT(x.size() == vars_.size());
  double worst = 0.0;
  for (int j = 0; j < num_vars(); ++j) {
    const Variable& v = vars_[static_cast<size_t>(j)];
    const double xj = x[static_cast<size_t>(j)];
    worst = std::max(worst, v.lb - xj);
    worst = std::max(worst, xj - v.ub);
    if (check_integrality && v.type != VarType::kContinuous) {
      worst = std::max(worst, std::abs(xj - std::round(xj)));
    }
  }
  for (const Constraint& c : cons_) {
    double a = 0.0;
    for (const auto& [idx, coeff] : c.terms)
      a += coeff * x[static_cast<size_t>(idx)];
    if (c.lb != -kInf) worst = std::max(worst, c.lb - a);
    if (c.ub != kInf) worst = std::max(worst, a - c.ub);
  }
  return worst;
}

double Model::objective_value(const std::vector<double>& x) const {
  CGRAF_ASSERT(x.size() == vars_.size());
  double obj = 0.0;
  for (int j = 0; j < num_vars(); ++j)
    obj += vars_[static_cast<size_t>(j)].obj * x[static_cast<size_t>(j)];
  return obj;
}

}  // namespace cgraf::milp
