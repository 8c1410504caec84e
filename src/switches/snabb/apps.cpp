#include "switches/snabb/app.h"

#include <algorithm>

namespace nfvsb::switches::snabb {

double RateLimiterApp::process(Batch& batch) {
  // Refill tokens for the elapsed interval, capped at the bucket size.
  const core::SimTime now = sim_.now();
  tokens_ = std::min(
      burst_, tokens_ + rate_pps_ * core::to_sec(now - last_refill_));
  last_refill_ = now;

  // Compact the admitted packets to the front, in order.
  std::size_t admitted = 0;
  for (auto& p : batch) {
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      batch[admitted++] = std::move(p);
    } else {
      ++dropped_;
      p.reset();  // policed
    }
  }
  batch.resize(admitted);
  return 0.0;
}

}  // namespace nfvsb::switches::snabb
