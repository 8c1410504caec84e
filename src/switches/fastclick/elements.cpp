#include "switches/fastclick/elements.h"

#include "pkt/headers.h"

namespace nfvsb::switches::fastclick {
void EtherMirror::push(PushContext& ctx, Batch& batch) {
  charge(ctx, batch.size());
  for (auto& p : batch) {
    pkt::EthHeader eth(p->bytes());
    if (!eth.valid()) continue;
    const auto src = eth.src();
    const auto dst = eth.dst();
    eth.set_src(dst);
    eth.set_dst(src);
  }
  push_next(ctx, batch);
}

}  // namespace nfvsb::switches::fastclick
