#include "pkt/packet.h"

#include <cassert>

#include "pkt/packet_pool.h"

namespace nfvsb::pkt {

void Packet::resize(std::uint32_t n) {
  assert(n <= kMaxFrameBytes);
  size_ = n;
}

void PacketHandle::free_to_pool() {
  assert(p_->owner_ != nullptr);
  p_->owner_->free_packet(p_);
  p_ = nullptr;
}

}  // namespace nfvsb::pkt
