// A floorplan: the operation-to-PE binding for every context.
#pragma once

#include <string>
#include <vector>

#include "cgrra/design.h"

namespace cgraf {

struct Floorplan {
  std::vector<int> op_to_pe;  // indexed by op id

  int pe_of(int op) const { return op_to_pe[static_cast<std::size_t>(op)]; }
};

// Checks structural validity:
//  - every op is bound to a PE inside the fabric,
//  - no two ops of the same context share a PE,
//  - the design itself is sane (contexts in range, edges are a DAG whose
//    cross-context edges only go forward in time).
// On failure returns false and, if `why` is non-null, a human-readable
// reason.
bool is_valid(const Design& design, const Floorplan& fp,
              std::string* why = nullptr);

}  // namespace cgraf
