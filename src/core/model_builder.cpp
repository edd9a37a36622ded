#include "core/model_builder.h"

#include <algorithm>
#include <map>

#include "util/check.h"

namespace cgraf::core {
namespace {

// Debug-assert mode: no model leaves the builder — or an RHS patch — with a
// lint error. The same checks run release-mode via tests and `cgraf_cli
// lint`.
void debug_lint(const RemapModel& rm) {
#ifndef NDEBUG
  verify::LintOptions lint_opts;
  lint_opts.include_info = false;
  const verify::LintReport general = verify::lint_model(rm.model, lint_opts);
  const verify::LintReport formulation =
      verify::lint_formulation(rm.model, rm.formulation_spec(), lint_opts);
  if (!general.clean() || !formulation.clean()) {
    std::fprintf(stderr, "%s%s", general.to_text().c_str(),
                 formulation.to_text().c_str());
    CGRAF_ASSERT(!"build_remap_model produced a model with lint errors");
  }
#else
  (void)rm;
#endif
}

}  // namespace

verify::FormulationSpec RemapModel::formulation_spec() const {
  verify::FormulationSpec spec;
  spec.num_pes = design != nullptr ? design->fabric.num_pes() : 0;
  spec.assign_vars = assign_vars;
  // candidates keeps a single entry for frozen ops but those have no
  // variables; align by copying only where variables exist.
  spec.candidates.assign(candidates.size(), {});
  for (std::size_t op = 0; op < candidates.size(); ++op) {
    if (!assign_vars[op].empty()) spec.candidates[op] = candidates[op];
  }
  spec.num_path_rows = num_path_rows;
  spec.num_monitored_paths = num_monitored_paths;
  return spec;
}

Floorplan RemapModel::decode(const std::vector<double>& x) const {
  CGRAF_ASSERT(design != nullptr && base != nullptr);
  Floorplan fp;
  fp.op_to_pe.assign(design->ops.size(), -1);
  for (int op = 0; op < design->num_ops(); ++op) {
    if (frozen[static_cast<std::size_t>(op)]) {
      fp.op_to_pe[static_cast<std::size_t>(op)] = base->pe_of(op);
      continue;
    }
    const auto& vars = assign_vars[static_cast<std::size_t>(op)];
    const auto& cand = candidates[static_cast<std::size_t>(op)];
    int chosen = -1;
    double best = 0.5;  // an integral solution has exactly one x > 0.5
    for (std::size_t c = 0; c < vars.size(); ++c) {
      const double v = x[static_cast<std::size_t>(vars[c])];
      if (v > best) {
        best = v;
        chosen = cand[c];
      }
    }
    CGRAF_ASSERT(chosen >= 0);
    fp.op_to_pe[static_cast<std::size_t>(op)] = chosen;
  }
  return fp;
}

RemapModel build_remap_model(const RemapModelSpec& spec) {
  CGRAF_ASSERT(spec.design != nullptr && spec.base != nullptr);
  const Design& d = *spec.design;
  const Fabric& fabric = d.fabric;
  const int n_ops = d.num_ops();
  const int n_pes = fabric.num_pes();
  CGRAF_ASSERT(static_cast<int>(spec.frozen.size()) == n_ops);
  CGRAF_ASSERT(static_cast<int>(spec.candidates.size()) == n_ops);

  RemapModel rm;
  rm.design = spec.design;
  rm.base = spec.base;
  rm.st_target = spec.st_target;
  rm.frozen = spec.frozen;
  rm.candidates.assign(static_cast<std::size_t>(n_ops), {});
  rm.assign_vars.assign(static_cast<std::size_t>(n_ops), {});

  auto fail = [&](std::string reason) {
    rm.trivially_infeasible = true;
    rm.infeasible_reason = std::move(reason);
    return rm;
  };

  // Frozen stress per PE and frozen occupancy per (context, pe).
  std::vector<double> frozen_stress(static_cast<std::size_t>(n_pes), 0.0);
  std::vector<std::vector<char>> frozen_occ(
      static_cast<std::size_t>(d.num_contexts),
      std::vector<char>(static_cast<std::size_t>(n_pes), 0));
  for (int op = 0; op < n_ops; ++op) {
    if (!spec.frozen[static_cast<std::size_t>(op)]) continue;
    const int pe = spec.base->pe_of(op);
    frozen_stress[static_cast<std::size_t>(pe)] +=
        op_stress(d.ops[static_cast<std::size_t>(op)], fabric);
    auto& occ = frozen_occ[static_cast<std::size_t>(
        d.ops[static_cast<std::size_t>(op)].context)];
    if (occ[static_cast<std::size_t>(pe)])
      return fail("two frozen ops share a PE in one context");
    occ[static_cast<std::size_t>(pe)] = 1;
  }
  for (int pe = 0; pe < n_pes; ++pe) {
    if (frozen_stress[static_cast<std::size_t>(pe)] > spec.st_target + 1e-9)
      return fail("frozen stress on PE " + std::to_string(pe) +
                  " already exceeds st_target");
  }

  // --- Assignment variables and rows.
  for (int op = 0; op < n_ops; ++op) {
    if (spec.frozen[static_cast<std::size_t>(op)]) {
      rm.candidates[static_cast<std::size_t>(op)] = {spec.base->pe_of(op)};
      continue;
    }
    const int ctx = d.ops[static_cast<std::size_t>(op)].context;
    const Point orig = fabric.loc(spec.base->pe_of(op));
    auto& cand = rm.candidates[static_cast<std::size_t>(op)];
    auto& vars = rm.assign_vars[static_cast<std::size_t>(op)];
    for (const int pe : spec.candidates[static_cast<std::size_t>(op)]) {
      // PEs held by a frozen op of the same context are unusable.
      if (frozen_occ[static_cast<std::size_t>(ctx)]
                    [static_cast<std::size_t>(pe)])
        continue;
      cand.push_back(pe);
      const double obj =
          spec.objective == ObjectiveMode::kMinPerturbation
              ? static_cast<double>(manhattan(fabric.loc(pe), orig))
              : 0.0;
      vars.push_back(rm.model.add_binary(obj));
    }
    if (cand.empty())
      return fail("op " + std::to_string(op) + " has no usable candidate PE");
    std::vector<std::pair<int, double>> row;
    row.reserve(vars.size());
    for (const int v : vars) row.emplace_back(v, 1.0);
    rm.model.add_eq(std::move(row), 1.0, "assign[" + std::to_string(op) + "]");
  }
  rm.num_binary_vars = rm.model.num_vars();

  // --- PE exclusivity per context and stress rows per PE.
  {
    // vars_by_ctx_pe[(ctx, pe)] -> list of vars;  stress terms per pe.
    std::vector<std::vector<std::pair<int, double>>> stress_terms(
        static_cast<std::size_t>(n_pes));
    std::map<std::pair<int, int>, std::vector<int>> excl;
    for (int op = 0; op < n_ops; ++op) {
      if (spec.frozen[static_cast<std::size_t>(op)]) continue;
      const int ctx = d.ops[static_cast<std::size_t>(op)].context;
      const double st = op_stress(d.ops[static_cast<std::size_t>(op)], fabric);
      const auto& cand = rm.candidates[static_cast<std::size_t>(op)];
      const auto& vars = rm.assign_vars[static_cast<std::size_t>(op)];
      for (std::size_t c = 0; c < cand.size(); ++c) {
        excl[{ctx, cand[c]}].push_back(vars[c]);
        stress_terms[static_cast<std::size_t>(cand[c])].emplace_back(vars[c],
                                                                     st);
      }
    }
    for (auto& [key, vars] : excl) {
      if (vars.size() < 2) continue;  // cannot conflict
      std::vector<std::pair<int, double>> row;
      row.reserve(vars.size());
      for (const int v : vars) row.emplace_back(v, 1.0);
      rm.model.add_le(std::move(row), 1.0,
                      "excl[" + std::to_string(key.first) + "," +
                          std::to_string(key.second) + "]");
    }
    rm.stress_rows.assign(static_cast<std::size_t>(n_pes), -1);
    for (int pe = 0; pe < n_pes; ++pe) {
      auto& terms = stress_terms[static_cast<std::size_t>(pe)];
      if (terms.empty()) continue;
      const double rhs =
          spec.st_target - frozen_stress[static_cast<std::size_t>(pe)];
      rm.stress_rows[static_cast<std::size_t>(pe)] = rm.model.add_le(
          std::move(terms), rhs, "stress[" + std::to_string(pe) + "]");
    }
    rm.frozen_stress = frozen_stress;
  }

  // --- Path wire-length constraints (Step 2.2, Eq. (5)).
  if (spec.monitored != nullptr) {
    rm.num_monitored_paths = static_cast<int>(spec.monitored->size());
    const double uwd = fabric.unit_wire_delay_ns();
    // Coordinate variables, created lazily per free op.
    std::vector<int> cx(static_cast<std::size_t>(n_ops), -1);
    std::vector<int> cy(static_cast<std::size_t>(n_ops), -1);
    auto coord_vars = [&](int op) {
      if (cx[static_cast<std::size_t>(op)] >= 0)
        return std::pair<int, int>{cx[static_cast<std::size_t>(op)],
                                   cy[static_cast<std::size_t>(op)]};
      const int vx = rm.model.add_continuous(0.0, fabric.cols() - 1);
      const int vy = rm.model.add_continuous(0.0, fabric.rows() - 1);
      std::vector<std::pair<int, double>> rx{{vx, 1.0}};
      std::vector<std::pair<int, double>> ry{{vy, 1.0}};
      const auto& cand = rm.candidates[static_cast<std::size_t>(op)];
      const auto& vars = rm.assign_vars[static_cast<std::size_t>(op)];
      for (std::size_t c = 0; c < cand.size(); ++c) {
        const Point p = fabric.loc(cand[c]);
        if (p.x != 0) rx.emplace_back(vars[c], -static_cast<double>(p.x));
        if (p.y != 0) ry.emplace_back(vars[c], -static_cast<double>(p.y));
      }
      rm.model.add_eq(std::move(rx), 0.0, "cx[" + std::to_string(op) + "]");
      rm.model.add_eq(std::move(ry), 0.0, "cy[" + std::to_string(op) + "]");
      cx[static_cast<std::size_t>(op)] = vx;
      cy[static_cast<std::size_t>(op)] = vy;
      return std::pair<int, int>{vx, vy};
    };
    // |distance| variables per free-free edge, shared across paths.
    std::map<std::pair<int, int>, std::pair<int, int>> edge_vars;  // dx, dy
    auto free_edge_vars = [&](int u, int v) {
      const auto key = std::minmax(u, v);
      const auto it = edge_vars.find(key);
      if (it != edge_vars.end()) return it->second;
      const auto [ux, uy] = coord_vars(u);
      const auto [vx_, vy_] = coord_vars(v);
      const int dx = rm.model.add_continuous(0.0, milp::kInf);
      const int dy = rm.model.add_continuous(0.0, milp::kInf);
      const std::string edge =
          std::to_string(key.first) + "," + std::to_string(key.second);
      rm.model.add_ge({{dx, 1.0}, {ux, -1.0}, {vx_, 1.0}}, 0.0,
                      "absx+[" + edge + "]");
      rm.model.add_ge({{dx, 1.0}, {ux, 1.0}, {vx_, -1.0}}, 0.0,
                      "absx-[" + edge + "]");
      rm.model.add_ge({{dy, 1.0}, {uy, -1.0}, {vy_, 1.0}}, 0.0,
                      "absy+[" + edge + "]");
      rm.model.add_ge({{dy, 1.0}, {uy, 1.0}, {vy_, -1.0}}, 0.0,
                      "absy-[" + edge + "]");
      return edge_vars[key] = {dx, dy};
    };

    for (const timing::TimingPath& path : *spec.monitored) {
      if (path.ops.size() < 2) continue;  // no wires on the path
      const double budget = uwd > 0.0
                                ? (spec.cpd_ns - path.pe_delay_ns) / uwd
                                : milp::kInf;
      std::vector<std::pair<int, double>> row;
      double constant = 0.0;
      for (std::size_t i = 0; i + 1 < path.ops.size(); ++i) {
        const int u = path.ops[i];
        const int v = path.ops[i + 1];
        const bool fu = spec.frozen[static_cast<std::size_t>(u)] != 0;
        const bool fv = spec.frozen[static_cast<std::size_t>(v)] != 0;
        if (fu && fv) {
          constant += manhattan(fabric.loc(spec.base->pe_of(u)),
                                fabric.loc(spec.base->pe_of(v)));
        } else if (fu != fv) {
          const int free_op = fu ? v : u;
          const Point anchor =
              fabric.loc(spec.base->pe_of(fu ? u : v));
          const auto& cand = rm.candidates[static_cast<std::size_t>(free_op)];
          const auto& vars = rm.assign_vars[static_cast<std::size_t>(free_op)];
          for (std::size_t c = 0; c < cand.size(); ++c) {
            const int dist = manhattan(fabric.loc(cand[c]), anchor);
            if (dist != 0) row.emplace_back(vars[c], static_cast<double>(dist));
          }
        } else {
          const auto [dx, dy] = free_edge_vars(u, v);
          row.emplace_back(dx, 1.0);
          row.emplace_back(dy, 1.0);
        }
      }
      if (budget == milp::kInf) continue;
      const double rhs = budget - constant;
      if (row.empty()) {
        if (rhs < -1e-9)
          return fail("all-frozen monitored path exceeds its wire budget");
        continue;
      }
      if (rhs < -1e-9)
        return fail("monitored path's frozen segments exceed its wire budget");
      rm.model.add_le(std::move(row), rhs,
                      "path[" + std::to_string(rm.num_path_rows) + "]");
      ++rm.num_path_rows;
    }
  }

  debug_lint(rm);
  return rm;
}

bool RemapModel::patch_st_target(double new_target) {
  CGRAF_ASSERT(!trivially_infeasible);
  CGRAF_ASSERT(design != nullptr);
  // Mirror of the builder's early-out: a frozen PE whose stress alone
  // exceeds the target makes the model infeasible before any solve. The
  // model is left untouched so a later patch to a looser target still works.
  for (const double fs : frozen_stress) {
    if (fs > new_target + 1e-9) return false;
  }
  for (std::size_t pe = 0; pe < stress_rows.size(); ++pe) {
    const int row = stress_rows[pe];
    if (row < 0) continue;
    model.set_constraint_bounds(row, -milp::kInf,
                                new_target - frozen_stress[pe]);
  }
  st_target = new_target;
  debug_lint(*this);
  return true;
}

}  // namespace cgraf::core
