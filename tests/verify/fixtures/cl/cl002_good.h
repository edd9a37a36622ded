// CL002 fixture (good): the Mutex guards a field and carries a lock_rank
// registration in its constructor arguments.
#pragma once

#include "util/sync.h"

namespace cgraf {

struct Widget {
  int value CGRAF_GUARDED_BY(mu_) = 0;
  mutable Mutex mu_{"widget.mu", lock_rank::kBnbShared};
};

}  // namespace cgraf
