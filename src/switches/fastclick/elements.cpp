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

void DecIPTTL::push(PushContext& ctx, Batch& batch) {
  charge(ctx, batch.size());
  // Compact the survivors to the front, in order; expired packets are
  // freed on the spot.
  std::size_t alive = 0;
  for (auto& p : batch) {
    pkt::EthHeader eth(p->bytes());
    if (eth.valid() && eth.ether_type() == pkt::kEtherTypeIpv4) {
      pkt::Ipv4Header ip(eth.payload());
      if (!ip.valid() || !ip.decrement_ttl()) {
        ++ctx.discarded;
        p.reset();
        continue;
      }
    }
    batch[alive++] = std::move(p);
  }
  batch.resize(alive);
  push_next(ctx, batch);
}

}  // namespace nfvsb::switches::fastclick
