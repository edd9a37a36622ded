#include "thermal/hotspot_lite.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cgraf::thermal {

std::vector<double> steady_state_temperature(const Fabric& fabric,
                                             const std::vector<double>& activity,
                                             const ThermalParams& p) {
  const int n = fabric.num_pes();
  CGRAF_ASSERT(static_cast<int>(activity.size()) == n);
  CGRAF_ASSERT(p.vertical_resistance > 0.0);
  CGRAF_ASSERT(p.lateral_conductance >= 0.0);

  const double gv = 1.0 / p.vertical_resistance;
  std::vector<double> power(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double a = activity[static_cast<std::size_t>(i)];
    CGRAF_ASSERT(a >= -1e-9 && a <= 1.0 + 1e-9);
    power[static_cast<std::size_t>(i)] =
        p.leak_power_w + p.active_power_w * std::clamp(a, 0.0, 1.0);
  }

  // Gauss-Seidel on: (gv + sum_j gl) T_i - sum_j gl T_j = P_i + gv T_amb.
  std::vector<double> temp(static_cast<std::size_t>(n), p.ambient_k);
  const int rows = fabric.rows();
  const int cols = fabric.cols();
  for (int iter = 0; iter < p.max_iterations; ++iter) {
    double max_delta = 0.0;
    for (int i = 0; i < n; ++i) {
      const Point loc = fabric.loc(i);
      double diag = gv;
      double neighbor_sum = 0.0;
      auto visit = [&](int x, int y) {
        if (x < 0 || x >= cols || y < 0 || y >= rows) return;
        diag += p.lateral_conductance;
        neighbor_sum += p.lateral_conductance *
                        temp[static_cast<std::size_t>(fabric.pe_at(
                            Point{x, y}))];
      };
      visit(loc.x - 1, loc.y);
      visit(loc.x + 1, loc.y);
      visit(loc.x, loc.y - 1);
      visit(loc.x, loc.y + 1);
      const double t_new = (power[static_cast<std::size_t>(i)] +
                            gv * p.ambient_k + neighbor_sum) /
                           diag;
      max_delta = std::max(max_delta,
                           std::abs(t_new - temp[static_cast<std::size_t>(i)]));
      temp[static_cast<std::size_t>(i)] = t_new;
    }
    if (max_delta < p.tolerance_k) break;
  }
  return temp;
}

}  // namespace cgraf::thermal
