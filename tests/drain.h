// Empty a ring from its consumer side, as a run's final drain does: every
// frame leaves through dequeue(), so enqueued() == dequeued() afterwards.
#pragma once

#include "ring/spsc_ring.h"

namespace nfvsb {

inline void drain(ring::SpscRing& r) {
  while (r.dequeue()) {
  }
}

}  // namespace nfvsb
