// The one table of remap solve strategies, shared by cgraf_cli's --strategy
// parsing, RemapOptions and the report printers. Every consumer resolves
// names through parse_strategy()/to_string() so a strategy added here is
// immediately parseable, printable and listed in usage text — the CL011
// lint rule rejects ad-hoc strategy-name string comparisons anywhere else.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/two_step.h"

namespace cgraf::core {

enum class SolveStrategy {
  // Exact MILP pipeline, distinguished by the two-step rounding mode.
  kExactDive,     // iterated LP dive (default; paper's pre-mapping iterated)
  kExactFixOnce,  // the paper's literal one-pass fix, then residual ILP
  kExactIlp,      // pure one-shot ILP (scaling baseline)
  // Shift/swap local search (core/local_search.h): heuristic, certifier-
  // checked, no solver code involved.
  kLocalSearch,
  // The local search first, then the exact dive pipeline on attempts where
  // the local search found no certified floorplan.
  kPortfolio,
};

struct StrategyInfo {
  SolveStrategy strategy;
  const char* name;     // canonical CLI value
  const char* alias;    // secondary CLI spelling ("" when none)
  // The remapper's attempt dispatch reads these two flags: a heuristic row
  // runs the local search, an exact row the MILP pipeline, and a row with
  // both runs the MILP pipeline only when the local search failed.
  bool exact;           // runs the MILP pipeline
  bool heuristic;       // runs the local-search engine
  // Two-step rounding mode of the MILP pipeline (unused when !exact).
  RoundingStrategy rounding;
  const char* summary;  // one-liner for usage/help text
};

// All strategies, in CLI listing order.
const std::vector<StrategyInfo>& strategy_table();

// Lookup by enum; never nullptr (every enumerator has a table row).
const StrategyInfo& strategy_info(SolveStrategy s);

// Lookup by canonical name or alias; nullptr when unknown.
const StrategyInfo* parse_strategy(std::string_view name);

const char* to_string(SolveStrategy s);

// Rounding-mode name for events/reports ("iterative_dive", ...), kept here
// so printers and the event vocabulary share one spelling.
const char* to_string(RoundingStrategy s);

// "dive|fix-once|ilp|ls|portfolio" — for usage strings and error messages.
std::string strategy_cli_values();

}  // namespace cgraf::core
