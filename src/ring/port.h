// Port: one side of an attachment between a packet-processing component
// (switch, guest application, NIC) and its peer.
//
// A Port bundles an inbound ring (peer -> holder), an outbound ring
// (holder -> peer) and a PortKind, which the switch cost models key on: a
// vhost-user crossing is charged its payload copies and a ptnet one is not
// (switches::CostModel), and nothing else about a port depends on its kind.
//
// Ports either own their rings (vhost-user, ptnet, internal links), bind
// rings owned elsewhere (a NIC's descriptor rings), or are the guest view
// of a host port: the same two rings with their directions swapped, so a
// guest application reads what the switch sent and sends what the switch
// reads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ring/spsc_ring.h"

namespace nfvsb::ring {

/// Default descriptor-ring depth; FastClick's tuning (Table 2) raises it.
inline constexpr std::size_t kDefaultRingDepth = 512;

enum class PortKind : std::uint8_t {
  kPhysical,   ///< NIC queue via poll-mode driver
  kVhostUser,  ///< virtio ring shared with a VM, vhost-user backend
  kPtnet,      ///< netmap ptnet passthrough to a VM (zero copy)
  kInternal,   ///< intra-switch link (Snabb inter-app links etc.)
};

const char* to_string(PortKind k);

class Port {
 public:
  /// Owning constructor: allocates both rings at `ring_depth`.
  Port(std::string name, PortKind kind,
       std::size_t ring_depth = kDefaultRingDepth);

  /// Binding constructor: wraps rings owned elsewhere (e.g. a NIC).
  Port(std::string name, PortKind kind, SpscRing& in, SpscRing& out);

  /// Guest view of `host`: the host's kind, its out() as in() and its in()
  /// as out(). `host` must outlive the view.
  Port(std::string name, Port& host)
      : Port(std::move(name), host.kind(), host.out(), host.in()) {}

  virtual ~Port() = default;
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] PortKind kind() const { return kind_; }

  /// Ring carrying packets toward the holder (holder rx-polls this).
  [[nodiscard]] SpscRing& in() { return *in_; }
  /// Ring carrying packets away from the holder.
  [[nodiscard]] SpscRing& out() { return *out_; }
  [[nodiscard]] const SpscRing& in() const { return *in_; }
  [[nodiscard]] const SpscRing& out() const { return *out_; }

  /// Transmit one packet, or a generator's unbuilt frame. False on a
  /// ring-full drop.
  bool tx(pkt::Frame&& f) { return out_->enqueue(std::move(f)); }

  [[nodiscard]] std::uint64_t tx_drops() const { return out_->drops(); }

 private:
  std::string name_;
  PortKind kind_;
  std::unique_ptr<SpscRing> owned_in_;
  std::unique_ptr<SpscRing> owned_out_;
  SpscRing* in_;
  SpscRing* out_;
};

/// The plain port under its older name, kept for perfbench, which
/// constructs it.
using RingPort = Port;

}  // namespace nfvsb::ring
