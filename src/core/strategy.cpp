#include "core/strategy.h"

#include "util/check.h"

namespace cgraf::core {

const std::vector<StrategyInfo>& strategy_table() {
  static const std::vector<StrategyInfo> kTable = {
      {SolveStrategy::kExactDive, "dive", "exact", true, false,
       RoundingStrategy::kIterativeDive,
       "exact MILP, iterated LP dive rounding (default)"},
      {SolveStrategy::kExactFixOnce, "fix-once", "", true, false,
       RoundingStrategy::kThresholdFixOnce,
       "exact MILP, one >0.95 fixing pass then residual ILP"},
      {SolveStrategy::kExactIlp, "ilp", "", true, false,
       RoundingStrategy::kNone, "exact one-shot ILP (scaling baseline)"},
      {SolveStrategy::kLocalSearch, "ls", "local-search", false, true,
       RoundingStrategy::kIterativeDive,
       "shift/swap local search, certifier-checked"},
      {SolveStrategy::kPortfolio, "portfolio", "", true, true,
       RoundingStrategy::kIterativeDive,
       "local search, then the exact dive where it fails"},
  };
  return kTable;
}

const StrategyInfo& strategy_info(SolveStrategy s) {
  for (const StrategyInfo& info : strategy_table()) {
    if (info.strategy == s) return info;
  }
  CGRAF_ASSERT(!"SolveStrategy missing from strategy_table()");
  return strategy_table().front();
}

const StrategyInfo* parse_strategy(std::string_view name) {
  for (const StrategyInfo& info : strategy_table()) {
    if (name == info.name || (info.alias[0] != '\0' && name == info.alias))
      return &info;
  }
  return nullptr;
}

const char* to_string(SolveStrategy s) { return strategy_info(s).name; }

const char* to_string(RoundingStrategy s) {
  switch (s) {
    case RoundingStrategy::kIterativeDive: return "iterative_dive";
    case RoundingStrategy::kThresholdFixOnce: return "threshold_fix_once";
    case RoundingStrategy::kRandomizedRound: return "randomized_round";
    case RoundingStrategy::kNone: return "none";
  }
  return "?";
}

std::string strategy_cli_values() {
  std::string out;
  for (const StrategyInfo& info : strategy_table()) {
    if (!out.empty()) out += "|";
    out += info.name;
  }
  return out;
}

}  // namespace cgraf::core
