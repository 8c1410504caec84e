#include "switches/bess/modules.h"

#include <algorithm>

#include "pkt/headers.h"

namespace nfvsb::switches::bess {

void MACSwap::process(TaskContext& ctx, Batch& batch) {
  charge(ctx, batch.size());
  for (auto& p : batch) {
    pkt::EthHeader eth(p->bytes());
    if (!eth.valid()) continue;
    const auto src = eth.src();
    const auto dst = eth.dst();
    eth.set_src(dst);
    eth.set_dst(src);
  }
  forward(ctx, batch);
}

void RandomSplit::process(TaskContext& ctx, Batch& batch) {
  charge(ctx, batch.size());
  if (gates_ == 0) {
    ctx.discarded += batch.size();
    return;
  }
  std::vector<Batch> buckets(gates_);
  for (auto& p : batch) {
    buckets[rng_.uniform_index(gates_)].push_back(std::move(p));
  }
  for (std::size_t g = 0; g < gates_; ++g) {
    if (!buckets[g].empty()) forward(ctx, buckets[g], g);
  }
}

void Update::process(TaskContext& ctx, Batch& batch) {
  charge(ctx, batch.size());
  for (auto& p : batch) {
    if (offset_ + value_.size() <= p->size()) {
      std::copy(value_.begin(), value_.end(), p->data() + offset_);
    }
  }
  forward(ctx, batch);
}

}  // namespace nfvsb::switches::bess
