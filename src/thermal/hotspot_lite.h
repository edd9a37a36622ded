// HotSpot-style compact steady-state thermal model of the PE grid.
//
// The paper feeds per-PE stress-time maps into HotSpot 6.0 and uses the
// resulting per-PE temperatures in the NBTI MTTF model. This module
// implements the block-level core of that flow: each PE is one thermal node
// with a vertical conductance to ambient (package/heat-sink path collapsed
// into one resistance) and lateral conductances to its 4-neighbours
// (silicon spreading). Power is leakage plus an activity-proportional
// dynamic term, activity being the PE's average duty cycle over a full
// context round — exactly the quantity the stress map provides.
#pragma once

#include <vector>

#include "cgrra/fabric.h"

namespace cgraf::thermal {

struct ThermalParams {
  double ambient_k = 318.15;        // 45 C board environment
  double leak_power_w = 0.004;      // static power per PE
  double active_power_w = 0.080;    // dynamic power per PE at 100% duty
  double vertical_resistance = 60;  // K/W, PE junction -> ambient
  double lateral_conductance = 0.08;  // W/K between adjacent PEs
  double tolerance_k = 1e-7;        // Gauss-Seidel convergence threshold
  int max_iterations = 20000;
};

// Solves the steady-state grid for the given per-PE activity (duty cycle in
// [0, 1], size = fabric.num_pes()). Returns per-PE temperature in Kelvin.
std::vector<double> steady_state_temperature(const Fabric& fabric,
                                             const std::vector<double>& activity,
                                             const ThermalParams& params = {});

}  // namespace cgraf::thermal
