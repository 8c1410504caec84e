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
// Two readers pull sources, one source each: a NIC port (hw::NicPort) and
// a guest's TX ring (SpscRing::feed_from_source), which every read of the
// ring's consumer pulls. Both decide same-instant ties by one rule, order
// keys: each frame's order key is reserved right after the frame before it
// was put in (the first when the source starts), where its pacing event's
// key would have been reserved, and the frame is due once
// core::Simulator::reached(emit time, key) holds. A source may enqueue
// built packets or unbuilt frames (pkt::Frame, SpscRing::enqueue); MoonGen
// enqueues unbuilt ones, so a frame the ring or the far end drops is never
// built.
//
// On a NIC port whose far end is an RX ring a consumer reads, the port
// composes the source with its departure law into one wire source
// (hw/nic.h), unless the run is traced or its queue depths are sampled:
// the source's frames then go to the port (NicPort::wire_accept), unbuilt,
// and the ones that land are built there. Sources without a recipe always
// go through the TX ring.
#pragma once

#include <limits>

#include "core/time.h"

namespace nfvsb::pkt {
class FrameRecipe;
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

  /// How the source's frames are built from their sequence numbers. A
  /// source without one (nullptr) always goes through its port's TX ring.
  [[nodiscard]] virtual const pkt::FrameRecipe* recipe() const {
    return nullptr;
  }

 protected:
  ~TxSource() = default;
};

}  // namespace nfvsb::ring
