// The floorplanner's LP shape for kernel tests: an ops x pes assignment
// with per-context exclusivity rows and per-PE stress caps, continuous
// variables in [0, 1] (micro_solver's lp_child_resolve model).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "milp/model.h"
#include "util/rng.h"

namespace cgraf::milp {

inline Model assignment_model(int ops, int pes, int contexts,
                              std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  std::vector<std::vector<int>> vars(static_cast<size_t>(ops));
  std::vector<double> stress(static_cast<size_t>(ops));
  for (int j = 0; j < ops; ++j) {
    stress[static_cast<size_t>(j)] = 0.2 + 0.6 * rng.next_double();
    for (int k = 0; k < pes; ++k)
      vars[static_cast<size_t>(j)].push_back(
          m.add_continuous(0, 1, rng.next_double()));
    std::vector<std::pair<int, double>> row;
    for (const int v : vars[static_cast<size_t>(j)]) row.emplace_back(v, 1.0);
    m.add_eq(std::move(row), 1.0);
  }
  const int per_ctx = ops / contexts;
  for (int c = 0; c < contexts; ++c) {
    for (int k = 0; k < pes; ++k) {
      std::vector<std::pair<int, double>> row;
      for (int j = c * per_ctx; j < (c + 1) * per_ctx && j < ops; ++j)
        row.emplace_back(vars[static_cast<size_t>(j)][static_cast<size_t>(k)],
                         1.0);
      if (row.size() > 1) m.add_le(std::move(row), 1.0);
    }
  }
  double total = 0.0;
  for (const double s : stress) total += s;
  const double cap = std::max(1.3 * total / pes, 0.85);
  for (int k = 0; k < pes; ++k) {
    std::vector<std::pair<int, double>> row;
    for (int j = 0; j < ops; ++j)
      row.emplace_back(vars[static_cast<size_t>(j)][static_cast<size_t>(k)],
                       stress[static_cast<size_t>(j)]);
    m.add_le(std::move(row), cap);
  }
  return m;
}

}  // namespace cgraf::milp
