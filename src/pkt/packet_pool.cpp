#include "pkt/packet_pool.h"

#include <cassert>
#include <cstring>
#include <new>
#include <utility>

#include "core/metrics.h"

namespace nfvsb::pkt {

PacketPool::PacketPool(std::size_t capacity)
    : capacity_(capacity),
      slab_(std::make_unique_for_overwrite<Slot[]>(capacity)) {
  if (core::MetricSink* reg = core::metrics()) {
    registry_ = reg;
    reg->add_counter(this, "pool/alloc_failures", &alloc_failures_);
  }
}

PacketPool::~PacketPool() {
  assert(outstanding_ == 0 && "packets leaked past their pool's lifetime");
  if (registry_ != nullptr) registry_->remove(this);
}

PacketHandle PacketPool::allocate() {
  if (!reserve()) return {};
  return allocate_reserved();
}

bool PacketPool::reserve() {
  if (outstanding_ + low_headroom_ >= capacity_ && on_low_) {
    std::exchange(on_low_, {})();
  }
  if (outstanding_ >= capacity_) {
    ++alloc_failures_;
    return false;
  }
  ++outstanding_;
  return true;
}

PacketHandle PacketPool::allocate_reserved() {
  // Occupancy counts every reservation, so a buffer is always left for
  // one: fewer than capacity_ buffers are out.
  assert(outstanding_ > 0);
  Packet* p = free_list_;
  if (p != nullptr) {
    free_list_ = p->pool_next_;
    p->pool_next_ = nullptr;
  } else {
    assert(constructed_ < capacity_);
    // First use of this slot (Packet's ctor is private to its friends).
    p = ::new (static_cast<void*>(&slab_[constructed_++])) Packet();
    p->owner_ = this;
  }
  ++handed_out_;
  // Reset metadata; payload bytes are overwritten by the producer.
  p->size_ = 0;
  p->seq = 0;
  p->probe_id = 0;
  p->tx_timestamp = core::kNoTimestamp;
  p->sw_timestamp = core::kNoTimestamp;
  p->origin = 0;
  p->trace_id = 0;
  return PacketHandle{p};
}

PacketHandle PacketPool::clone(const Packet& src) {
  PacketHandle h = allocate();
  if (!h) return h;
  Packet& dst = *h;
  dst.size_ = src.size_;
  std::memcpy(dst.data_.data(), src.data_.data(), src.size_);
  dst.seq = src.seq;
  dst.probe_id = src.probe_id;
  dst.tx_timestamp = src.tx_timestamp;
  dst.sw_timestamp = src.sw_timestamp;
  dst.origin = src.origin;
  return h;
}

void PacketPool::free_packet(Packet* p) {
  assert(p->owner_ == this);
  assert(owns(p));
  assert(outstanding_ > 0);
  p->pool_next_ = free_list_;
  free_list_ = p;
  --outstanding_;
}

}  // namespace nfvsb::pkt
