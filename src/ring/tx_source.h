// TxSource: a traffic generator that its reader pulls frames from, instead
// of one that pushes each frame into a TX ring from its own pacing event.
//
// A paced generator's emit times follow from its pacing alone, so nothing
// needs to happen at them: the frames only have to be in the TX ring by
// the time something looks at it. The reader first enqueues every frame
// due by then, in order, each stamped with its own emit time; occupancy,
// and therefore TX-ring drops, come out as if each frame had been enqueued
// at its emit time, because nothing dequeues between two reads. This
// mirrors real MoonGen, which leaves pacing to the NIC and sends from
// pre-filled buffers (Emmerich et al., IMC 2015).
//
// Two readers pull sources, one source each: a NIC port's wire source
// (hw::NicPort), which every read of the peer's RX rings or of the port's
// TX ring pulls, and a guest's TX ring (SpscRing::feed_from_source), which
// every read of the ring's consumer pulls. Both decide same-instant ties
// by one rule, order keys: each frame's order key is reserved right after
// the frame before it was put in (the first when the source starts), where
// its pacing event's key would have been reserved, and the frame is due
// once core::Simulator::reached(emit time, key) holds. A source may enqueue
// built packets or unbuilt frames (pkt::Frame, SpscRing::enqueue); MoonGen
// enqueues unbuilt ones, so a frame the ring or the far end drops is never
// built.
//
// On a NIC port the port composes the source with its departure law into
// one wire source (hw/nic.h), in every run, traced or sampled or not: the
// source's frames go to the port (NicPort::wire_accept), a plain one as
// its sequence number in the source's recipe, and the ones that land are
// built there.
//
// Bulk advance. While the far end's RX ring is full, the wire source drops
// whole runs of frames in one step (hw/nic.h, "Bulk drops"). For that it
// asks the source for the plain frames due before an instant at once
// (emit_run): the source advances by the run in closed form and the port
// takes the run as its sequence numbers, exactly as that many emit_next()
// calls would have put them in.
#pragma once

#include <cstdint>
#include <limits>

#include "core/time.h"

namespace nfvsb::pkt {
class FrameRecipe;
class PacketPool;
}  // namespace nfvsb::pkt

namespace nfvsb::ring {

class TxSource {
 public:
  /// next_emit() of a source with nothing (more) to send.
  static constexpr core::SimTime kNever =
      std::numeric_limits<core::SimTime>::max();

  /// Emit time of the next frame, or kNever.
  [[nodiscard]] virtual core::SimTime next_emit() const = 0;

  /// Enqueue the next frame, stamped with next_emit(); the reader calls it
  /// only once that frame is due.
  virtual void emit_next() = 0;

  /// An upper bound on the time between two consecutive emits: how far
  /// back a reader may have to order a read against the pull before it.
  [[nodiscard]] virtual core::SimDuration max_gap() const = 0;

  /// How the source's frames are built from their sequence numbers, and
  /// the pool they are built in.
  [[nodiscard]] virtual const pkt::FrameRecipe* recipe() const = 0;
  [[nodiscard]] virtual pkt::PacketPool* pool() const = 0;

  /// Plain frames first_seq, first_seq + 1, ... (recipe()), `count` of
  /// them.
  struct Run {
    std::uint64_t first_seq{0};
    std::uint64_t count{0};
  };
  /// Bulk advance: emit in one step the frames emit_next() would emit
  /// before `t`, each `gap` after the one before, and return them as a run
  /// for the reader to put in. The reader calls it only where it has room
  /// for every frame due before `t`. The run stops before the first frame
  /// that is not plain (a probe), at the source's end, and is empty when
  /// the source's pacing is not exactly `gap` whole picoseconds.
  virtual Run emit_run(core::SimTime /*t*/, core::SimDuration /*gap*/) {
    return {};
  }

 protected:
  ~TxSource() = default;
};

}  // namespace nfvsb::ring
