// Fixed-size packet buffer pool (mempool-style).
//
// All packets in a simulation come from pools; exhaustion is a real,
// observable condition (DPDK mempool depletion) surfaced as allocate()
// returning an empty handle. Pools also give tests a leak detector:
// outstanding() must return to zero when a scenario drains.
//
// Storage is one contiguous slab of `capacity` fixed 1600-byte buffers
// (like a DPDK mempool's backing memzone), not per-packet heap nodes: one
// allocation per pool, and neighbouring packets share cache lines/pages.
// The slab is allocated uninitialised and a buffer is constructed only the
// first time allocate() needs it, so a pool costs what its peak occupancy
// touches, not its capacity. allocate() prefers the most recently freed
// buffer (LIFO) and reaches a never-used one only when the free list is
// empty; buffers come out in slab order until the first one is freed.
//
// A reservation (reserve()) counts as a handed-out buffer without taking
// one: a generator frame that is not built yet holds one until it is built
// (allocate_reserved) or dropped, from its emit in a guest, from its
// landing behind a NIC (pkt/frame.h). Occupancy, and so exhaustion, counts
// reservations and buffers alike.
//
// Lazily read RX rings take a frame's buffer at the first read after the
// frame arrived (ring/spsc_ring.h, hw/nic.h). That is exact only while no
// landing can find the pool dry: then its outcome does not depend on what
// else the pool did between the arrival and the read. The low-water hook
// lets the owner of such rings switch them to one landing event per
// arrival before that can happen: it fires once, at the first reservation
// that finds fewer than `headroom` buffers free.

#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>

#include "core/counter.h"
#include "core/event_fn.h"
#include "pkt/packet.h"

namespace nfvsb::core {
class MetricSink;
}  // namespace nfvsb::core

namespace nfvsb::pkt {

class PacketPool {
 public:
  explicit PacketPool(std::size_t capacity);
  ~PacketPool();

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// reserve() then allocate_reserved(). Empty handle on exhaustion.
  [[nodiscard]] PacketHandle allocate();

  /// Reserve one buffer without taking it (see above). False on
  /// exhaustion, which counts as an allocation failure.
  [[nodiscard]] bool reserve();
  /// Take the buffer a reserve() set aside. Never fails.
  [[nodiscard]] PacketHandle allocate_reserved();
  /// Call `fn` once, at the first reservation that finds fewer than
  /// `headroom` buffers free (see above), before it is made.
  void set_low_water(std::size_t headroom, core::SmallFn<void> fn) {
    low_headroom_ = headroom;
    on_low_ = std::move(fn);
  }

  /// Give a reservation back unused.
  void release_reservation() {
    assert(outstanding_ > 0);
    --outstanding_;
  }

  /// Allocate and copy `src` (payload + measurement metadata). Empty
  /// handle on exhaustion.
  [[nodiscard]] PacketHandle clone(const Packet& src);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }
  [[nodiscard]] std::size_t available() const {
    return capacity_ - outstanding_;
  }
  [[nodiscard]] std::uint64_t alloc_failures() const { return alloc_failures_; }
  /// Buffers handed out so far: by allocate(), clone() and
  /// allocate_reserved(), i.e. frames built.
  [[nodiscard]] std::uint64_t handed_out() const { return handed_out_; }

  /// True when `p` is a buffer of this pool's slab that has been handed out
  /// at least once (range check; used by audits and tests, not the data
  /// path).
  [[nodiscard]] bool owns(const Packet* p) const {
    const auto* s = reinterpret_cast<const Slot*>(p);
    return p != nullptr && s >= slab_.get() && s < slab_.get() + constructed_;
  }

 private:
  friend class PacketHandle;
  void free_packet(Packet* p);

  /// Raw storage for one Packet. Packets are never destroyed explicitly:
  /// the slab's lifetime ends theirs.
  struct alignas(Packet) Slot {
    unsigned char bytes[sizeof(Packet)];
  };
  static_assert(std::is_trivially_destructible_v<Packet>);

  std::size_t capacity_;
  /// Buffers handed out plus reservations.
  std::size_t outstanding_{0};
  std::uint64_t handed_out_{0};
  core::Counter alloc_failures_;
  std::unique_ptr<Slot[]> slab_;
  /// Slots [0, constructed_) hold Packets; the rest were never used.
  std::size_t constructed_{0};
  Packet* free_list_{nullptr};
  std::size_t low_headroom_{0};
  core::SmallFn<void> on_low_;
  core::MetricSink* registry_{nullptr};
};

}  // namespace nfvsb::pkt
