// A frame as NIC rings and the wire carry it: a built packet, or a
// generator frame that is not built yet.
//
// An 82599 that has no free RX descriptor drops an arriving frame at the
// MAC: the frame is never DMA'd, and DPDK only counts it in imissed. A
// paced generator knows everything about a frame when it emits it: its
// bytes follow from its sequence number and the generator's FrameRecipe.
// So a plain generator frame travels from emit to landing as a descriptor:
// its sequence number, its recipe and the pool it is built in, not a
// buffer. It is built (allocate + FrameTemplate::stamp) where its bytes are
// first needed: when it lands in a NIC RX ring with room (the NIC DMAs
// it), or reaches a timed sink (hw/nic.h). One that overflows is counted
// and never built.
//
// Which pool buffer it holds on the way depends on where it goes. A frame
// a guest sends takes a reservation of one buffer at emit (the guest's
// vring holds it), and the reservation counts in the pool's occupancy
// until the frame is built or dropped. A frame a generator sends over a
// NIC comes from another machine: it holds nothing until it lands, where
// reserve() takes the buffer the receiving NIC DMAs it into, and a pool
// with none left drops it as imissed. Probes carry more fields and are
// built at emit.
//
// Trace ids. A frame a packet tracer follows (core::TraceSink::sample_hit
// of its sequence number) carries trace_id(origin, seq): a pure function
// of its generator's origin and its sequence number, so the id does not
// depend on the order generators emit in or frames are built in. An
// unbuilt frame derives it from its recipe, and its build writes it.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>

#include "core/time.h"
#include "pkt/crafting.h"
#include "pkt/headers.h"
#include "pkt/packet.h"
#include "pkt/packet_pool.h"

namespace nfvsb::pkt {

/// Measurement fields a generator sets when it emits a frame (the Packet
/// fields of the same names). A built packet's tx_timestamp is the pool's
/// kNoTimestamp until its NIC stamps it.
struct FrameMeta {
  std::uint64_t seq{0};
  std::uint64_t probe_id{0};
  core::SimTime sw_timestamp{core::kNoTimestamp};
};

/// Generator origins a trace id can tell apart.
inline constexpr std::uint32_t kTraceOriginBits = 4;

/// The trace id of frame `seq` (from 1) of the generator tagged `origin`:
/// non-zero, and distinct for every (origin, seq) a run can have (origin
/// below 2^kTraceOriginBits, seq below 2^(32 - kTraceOriginBits)).
[[nodiscard]] constexpr std::uint32_t trace_id(std::uint32_t origin,
                                               std::uint64_t seq) {
  assert(origin < (1u << kTraceOriginBits) && seq >= 1 &&
         seq < (std::uint64_t{1} << (32 - kTraceOriginBits)) &&
         "trace ids would alias");
  return static_cast<std::uint32_t>(seq << kTraceOriginBits | origin);
}

/// How a generator builds its frames: copies of one template whose UDP
/// source port cycles round-robin over `flows` ports from the spec's, by
/// sequence number, tagged with the generator's `origin`.
class FrameRecipe {
 public:
  FrameRecipe(const FrameSpec& spec, std::uint32_t flows,
              std::uint32_t origin);

  [[nodiscard]] std::uint32_t frame_bytes() const { return frame_bytes_; }
  /// Write the frame `meta` describes into `p`, with its measurement
  /// fields, origin and trace id.
  void build(Packet& p, const FrameMeta& meta) const;
  /// Frame `seq`'s trace id while the installed tracer follows it, else 0.
  [[nodiscard]] std::uint32_t traced_id(std::uint64_t seq) const;
  /// What parse_five_tuple reads from frame `seq` once built.
  [[nodiscard]] FiveTuple five_tuple(std::uint64_t seq) const;

 private:
  [[nodiscard]] std::uint16_t src_port(std::uint64_t seq) const {
    return static_cast<std::uint16_t>(tuple_.src_port + (seq - 1) % flows_);
  }

  FrameTemplate tmpl_;
  FiveTuple tuple_;
  std::uint32_t frame_bytes_;
  std::uint32_t flows_;
  std::uint32_t origin_;
};

class Frame {
 public:
  Frame() = default;
  /// A built packet.
  Frame(PacketHandle p) : pkt_(std::move(p)) {}  // NOLINT: implicit
  /// Unbuilt frame `seq` of `recipe`, with no probe or trace fields. Takes
  /// over one reservation of `pool`, which the frame either builds into or
  /// gives back when it dies. `recipe` must outlive any build.
  Frame(const FrameRecipe& recipe, PacketPool& pool, std::uint64_t seq)
      : recipe_(&recipe), pool_(&pool), seq_(seq), reserved_(true) {}
  /// Unbuilt frame `seq` of `recipe` that holds no reservation yet (see
  /// above): where it lands, reserve() takes one before it is built.
  [[nodiscard]] static Frame unreserved(const FrameRecipe& recipe,
                                        PacketPool& pool, std::uint64_t seq) {
    Frame f(recipe, pool, seq);
    f.reserved_ = false;
    return f;
  }

  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;
  Frame(Frame&& o) noexcept
      : pkt_(std::move(o.pkt_)),
        recipe_(o.recipe_),
        pool_(std::exchange(o.pool_, nullptr)),
        seq_(o.seq_),
        reserved_(o.reserved_) {}
  Frame& operator=(Frame&& o) noexcept {
    if (this != &o) {
      release();
      pkt_ = std::move(o.pkt_);
      recipe_ = o.recipe_;
      pool_ = std::exchange(o.pool_, nullptr);
      seq_ = o.seq_;
      reserved_ = o.reserved_;
    }
    return *this;
  }
  ~Frame() { release(); }

  explicit operator bool() const { return pkt_ || pool_ != nullptr; }
  [[nodiscard]] bool built() const { return static_cast<bool>(pkt_); }

  [[nodiscard]] std::uint64_t seq() const { return pkt_ ? pkt_->seq : seq_; }
  [[nodiscard]] std::uint64_t probe_id() const {
    return pkt_ ? pkt_->probe_id : 0;
  }
  [[nodiscard]] std::uint32_t trace_id() const {
    return pkt_ ? pkt_->trace_id : recipe_->traced_id(seq_);
  }
  [[nodiscard]] std::uint32_t size() const {
    return pkt_ ? pkt_->size() : recipe_->frame_bytes();
  }
  /// The frame's 5-tuple, read without building it.
  [[nodiscard]] std::optional<FiveTuple> five_tuple() const {
    if (pkt_) return parse_five_tuple(pkt_->bytes());
    return recipe_->five_tuple(seq_);
  }

  /// Take the pool reservation of an unreserved frame: false, and the
  /// frame must not be built, when the pool has none left.
  [[nodiscard]] bool reserve() {
    if (pool_ == nullptr || reserved_) return true;
    reserved_ = pool_->reserve();
    return reserved_;
  }

  /// Build the frame now if it is not built yet. It must hold a
  /// reservation.
  void build() {
    if (!pkt_) build_from_recipe();
  }
  /// The packet, built now if it was not.
  [[nodiscard]] Packet& packet() {
    build();
    return *pkt_;
  }
  /// Hand over the packet, built now if it was not.
  [[nodiscard]] PacketHandle take() {
    build();
    return std::move(pkt_);
  }

 private:
  void build_from_recipe() {
    assert(reserved_ && "reserve() an unreserved frame before building it");
    pkt_ = pool_->allocate_reserved();
    FrameMeta meta;
    meta.seq = seq_;
    recipe_->build(*pkt_, meta);
    pool_ = nullptr;
  }
  void release() {
    PacketPool* pool = std::exchange(pool_, nullptr);
    if (pool != nullptr && reserved_) pool->release_reservation();
  }

  PacketHandle pkt_;
  const FrameRecipe* recipe_{nullptr};
  /// Set while the frame is unbuilt.
  PacketPool* pool_{nullptr};
  std::uint64_t seq_{0};
  /// The unbuilt frame holds a reservation of pool_.
  bool reserved_{false};
};

}  // namespace nfvsb::pkt
