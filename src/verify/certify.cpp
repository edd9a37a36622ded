#include "verify/certify.h"

#include <cmath>

#include "cgrra/stress.h"
#include "obs/json_writer.h"
#include "verify/kahan.h"

namespace cgraf::verify {

void Certificate::fail(const CertifyOptions& opts, std::string check,
                       std::string message) {
  ok = false;
  if (static_cast<int>(issues.size()) < opts.max_issues)
    issues.push_back(CertifyIssue{std::move(check), std::move(message)});
}

std::string Certificate::summary() const {
  if (ok) return "certified";
  if (issues.empty()) return "rejected";
  return issues.front().check + ": " + issues.front().message;
}

std::string Certificate::to_json() const {
  obs::JsonWriter w;
  w.begin_object()
      .field("ok", ok)
      .field("max_row_violation", max_row_violation)
      .field("max_bound_violation", max_bound_violation)
      .field("max_int_violation", max_int_violation)
      .field("objective", objective)
      .key("issues")
      .begin_array();
  for (const CertifyIssue& i : issues) {
    w.begin_object()
        .field("check", i.check)
        .field("message", i.message)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

Certificate certify_solution(const milp::Model& model,
                             const std::vector<double>& x,
                             const CertifyOptions& opts, bool relaxed,
                             const double* claimed_obj) {
  Certificate cert;
  if (static_cast<int>(x.size()) != model.num_vars()) {
    cert.fail(opts, "shape",
              "solution has " + std::to_string(x.size()) +
                  " entries, model has " + std::to_string(model.num_vars()) +
                  " variables");
    return cert;
  }

  // Variable bounds and integrality.
  for (int j = 0; j < model.num_vars(); ++j) {
    const milp::Variable& v = model.var(j);
    const double xj = x[static_cast<std::size_t>(j)];
    if (!std::isfinite(xj)) {
      cert.fail(opts, "finite",
                "variable " + std::to_string(j) + " is not finite");
      continue;
    }
    const double bviol = std::max(v.lb - xj, xj - v.ub);
    cert.max_bound_violation = std::max(cert.max_bound_violation, bviol);
    if (bviol > opts.tol_feas * std::max({1.0, std::abs(v.lb),
                                          std::abs(v.ub)})) {
      cert.fail(opts, "bounds",
                "variable " + std::to_string(j) + " = " + std::to_string(xj) +
                    " violates [" + std::to_string(v.lb) + ", " +
                    std::to_string(v.ub) + "]");
    }
    if (!relaxed && v.type != milp::VarType::kContinuous) {
      const double iviol = std::abs(xj - std::round(xj));
      cert.max_int_violation = std::max(cert.max_int_violation, iviol);
      if (iviol > opts.tol_int) {
        cert.fail(opts, "integrality",
                  "variable " + std::to_string(j) + " = " +
                      std::to_string(xj) + " is fractional");
      }
    }
  }

  // Per-row feasibility with compensated accumulation.
  for (int r = 0; r < model.num_constraints(); ++r) {
    const milp::Constraint& c = model.constraint(r);
    const double a = kahan_dot(c.terms, x);
    double viol = 0.0;
    if (c.lb != -milp::kInf) viol = std::max(viol, c.lb - a);
    if (c.ub != milp::kInf) viol = std::max(viol, a - c.ub);
    cert.max_row_violation = std::max(cert.max_row_violation, viol);
    const double scale = std::max(
        {1.0, c.lb == -milp::kInf ? 0.0 : std::abs(c.lb),
         c.ub == milp::kInf ? 0.0 : std::abs(c.ub)});
    if (viol > opts.tol_feas * scale) {
      const std::string& name = c.name;
      cert.fail(opts, "row-feasibility",
                (name.empty() ? "row " + std::to_string(r)
                              : "row '" + name + "'") +
                    " activity " + std::to_string(a) + " outside [" +
                    std::to_string(c.lb) + ", " + std::to_string(c.ub) + "]");
    }
  }

  // Objective recomputation.
  {
    KahanSum obj;
    for (int j = 0; j < model.num_vars(); ++j)
      obj.add(model.var(j).obj * x[static_cast<std::size_t>(j)]);
    cert.objective = obj.value();
    if (claimed_obj != nullptr &&
        std::abs(cert.objective - *claimed_obj) >
            opts.tol_obj * std::max(1.0, std::abs(*claimed_obj))) {
      cert.fail(opts, "objective",
                "recomputed objective " + std::to_string(cert.objective) +
                    " != claimed " + std::to_string(*claimed_obj));
    }
  }
  return cert;
}

Certificate certify_floorplan(const FloorplanSpec& spec, const Floorplan& fp,
                              const CertifyOptions& opts) {
  Certificate cert;
  const Design& d = *spec.design;
  const Fabric& fabric = d.fabric;
  const int n_ops = d.num_ops();
  const int n_pes = fabric.num_pes();

  if (static_cast<int>(fp.op_to_pe.size()) != n_ops) {
    cert.fail(opts, "shape",
              "floorplan binds " + std::to_string(fp.op_to_pe.size()) +
                  " ops, design has " + std::to_string(n_ops));
    return cert;
  }
  for (int op = 0; op < n_ops; ++op) {
    const int pe = fp.pe_of(op);
    if (pe < 0 || pe >= n_pes) {
      cert.fail(opts, "shape",
                "op " + std::to_string(op) + " bound to PE " +
                    std::to_string(pe) + " outside the fabric");
      return cert;
    }
    const int ctx = d.ops[static_cast<std::size_t>(op)].context;
    if (ctx < 0 || ctx >= d.num_contexts) {
      cert.fail(opts, "shape",
                "op " + std::to_string(op) + " has context " +
                    std::to_string(ctx) + " outside [0, " +
                    std::to_string(d.num_contexts) + ")");
      return cert;
    }
  }

  // Exactly-one binding: no two ops of one context on the same PE.
  {
    std::vector<int> owner(
        static_cast<std::size_t>(d.num_contexts) *
            static_cast<std::size_t>(n_pes),
        -1);
    for (int op = 0; op < n_ops; ++op) {
      const int ctx = d.ops[static_cast<std::size_t>(op)].context;
      const std::size_t slot =
          static_cast<std::size_t>(ctx) * static_cast<std::size_t>(n_pes) +
          static_cast<std::size_t>(fp.pe_of(op));
      if (owner[slot] >= 0) {
        cert.fail(opts, "exclusivity",
                  "ops " + std::to_string(owner[slot]) + " and " +
                      std::to_string(op) + " share PE " +
                      std::to_string(fp.pe_of(op)) + " in context " +
                      std::to_string(ctx));
      } else {
        owner[slot] = op;
      }
    }
  }

  // Accumulated stress per PE, compensated, against ST_target. Only a
  // negative target disables the check; a NaN one fails closed, since no
  // stress can be shown to meet it.
  if (std::isnan(spec.st_target)) {
    cert.fail(opts, "stress", "ST_target is NaN");
  } else if (spec.st_target >= 0.0) {
    std::vector<KahanSum> acc(static_cast<std::size_t>(n_pes));
    for (int op = 0; op < n_ops; ++op) {
      acc[static_cast<std::size_t>(fp.pe_of(op))].add(
          op_stress(d.ops[static_cast<std::size_t>(op)], fabric));
    }
    for (int pe = 0; pe < n_pes; ++pe) {
      const double st = acc[static_cast<std::size_t>(pe)].value();
      if (st > spec.st_target + opts.tol_stress +
                   1e-12 * std::abs(spec.st_target)) {
        cert.fail(opts, "stress",
                  "PE " + std::to_string(pe) + " accumulates stress " +
                      std::to_string(st) + " > ST_target " +
                      std::to_string(spec.st_target));
      }
    }
  }

  // Frozen critical-path ops must keep their reference binding.
  if (spec.reference != nullptr && !spec.frozen.empty()) {
    for (int op = 0; op < n_ops; ++op) {
      if (!spec.frozen[static_cast<std::size_t>(op)]) continue;
      if (fp.pe_of(op) != spec.reference->pe_of(op)) {
        cert.fail(opts, "frozen",
                  "frozen op " + std::to_string(op) + " moved from PE " +
                      std::to_string(spec.reference->pe_of(op)) + " to PE " +
                      std::to_string(fp.pe_of(op)));
      }
    }
  }

  // Every monitored path within its wirelength budget: recomputing the
  // path delay from PE positions and comparing against the CPD reference is
  // Eq. (5) with the substitution wl * uwd = delay - pe_delay.
  if (spec.monitored != nullptr && spec.cpd_ns > 0.0) {
    for (std::size_t p = 0; p < spec.monitored->size(); ++p) {
      const timing::TimingPath& path = (*spec.monitored)[p];
      const double delay = timing::path_delay_ns(d, fp, path);
      if (delay > spec.cpd_ns + opts.tol_delay_ns) {
        cert.fail(opts, "path-budget",
                  "monitored path " + std::to_string(p) + " has delay " +
                      std::to_string(delay) + " ns > CPD budget " +
                      std::to_string(spec.cpd_ns) + " ns");
      }
    }
  }
  return cert;
}

}  // namespace cgraf::verify
