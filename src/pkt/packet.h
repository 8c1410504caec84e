// Packet buffer (mbuf-style).
//
// Packets carry real bytes: generators craft genuine Ethernet/IPv4/UDP
// frames and switches parse genuine headers, so the functional data planes
// (MAC learning, flow caches, P4 pipelines) operate on real data. Timing is
// supplied separately by the cost models.
//
// Metadata carried alongside the payload:
//  * timestamps (wire TX / wire RX / software) for latency measurement,
//  * a copy counter (each simulated memcpy increments it — lets tests assert
//    zero-copy vs copy paths, e.g. ptnet vs vhost-user),
//  * generator sequence numbers + probe ids for PTP latency probes.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "core/time.h"

namespace nfvsb::pkt {

inline constexpr std::uint32_t kMaxFrameBytes = 1600;
inline constexpr std::uint32_t kMinFrameBytes = 64;

class PacketPool;

class Packet {
 public:
  [[nodiscard]] std::uint32_t size() const { return size_; }
  void resize(std::uint32_t n);

  [[nodiscard]] std::span<std::uint8_t> bytes() {
    return {data_.data(), size_};
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data_.data(), size_};
  }
  [[nodiscard]] std::uint8_t* data() { return data_.data(); }
  [[nodiscard]] const std::uint8_t* data() const { return data_.data(); }

  // --- measurement metadata -------------------------------------------------
  /// Monotone per-generator sequence number.
  std::uint64_t seq{0};
  /// Non-zero marks a latency probe (PTP-style); value is the probe id.
  std::uint64_t probe_id{0};
  /// Wire timestamp at first transmission (NIC HW timestamp semantics);
  /// core::kNoTimestamp until stamped (t=0 is a valid stamp).
  core::SimTime tx_timestamp{core::kNoTimestamp};
  /// Software timestamp written by a generator into the payload path;
  /// core::kNoTimestamp until stamped.
  core::SimTime sw_timestamp{core::kNoTimestamp};
  /// Number of simulated full-payload copies this packet suffered so far.
  std::uint32_t copy_count{0};
  /// Generator id, used by monitors to demultiplex counters.
  std::uint32_t origin{0};
  /// Non-zero when this packet is followed hop-by-hop by the trace
  /// recorder (obs/trace.h). Not copied by clone(): a clone is a new
  /// buffer, and double-tracked ids would unbalance the lifecycle slices.
  std::uint32_t trace_id{0};

  /// Simulate a memcpy of the payload (cost is charged by the caller's cost
  /// model; this records the fact for invariant checks).
  void note_copy() { ++copy_count; }

 private:
  friend class PacketPool;
  friend class PacketHandle;
  Packet() = default;

  std::array<std::uint8_t, kMaxFrameBytes> data_{};
  std::uint32_t size_{0};
  // Intrusive free-list / refcount managed by PacketPool.
  Packet* pool_next_{nullptr};
  PacketPool* owner_{nullptr};
};

/// Owning handle to a pool-allocated packet. Move-only; releasing returns the
/// buffer to its pool (RAII, no raw new/delete anywhere in the data path).
class PacketHandle {
 public:
  PacketHandle() = default;
  PacketHandle(Packet* p) : p_(p) {}  // NOLINT: pool-internal
  PacketHandle(const PacketHandle&) = delete;
  PacketHandle& operator=(const PacketHandle&) = delete;
  PacketHandle(PacketHandle&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  // Inline, like reset(): handles are moved and destroyed empty far more
  // often than they free a packet.
  PacketHandle& operator=(PacketHandle&& o) noexcept {
    if (this != &o) {
      reset();
      p_ = o.p_;
      o.p_ = nullptr;
    }
    return *this;
  }
  ~PacketHandle() { reset(); }

  [[nodiscard]] Packet* get() const { return p_; }
  Packet* operator->() const { return p_; }
  Packet& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }

  /// Release ownership without freeing (used by rings that store raw slots).
  Packet* release() {
    Packet* p = p_;
    p_ = nullptr;
    return p;
  }

  void reset() {
    if (p_ != nullptr) free_to_pool();
  }

 private:
  /// Return the packet to its pool and empty the handle.
  void free_to_pool();

  Packet* p_{nullptr};
};

}  // namespace nfvsb::pkt
