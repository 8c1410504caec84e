// vhost-user port model.
//
// The backend (the software switch) exchanges packets with a VM over virtio
// descriptor rings. Both directions copy the payload between guest memory
// and switch mbufs and convert descriptor formats — the dominant cost the
// paper attributes to virtualized scenarios (Sec. 5.2: "vhost-user requires
// to enqueue/dequeue virtio rings by copying packets").
//
// This class represents the SWITCH side; the VM side is a GuestVirtioPort
// proxy sharing the same rings with inverse direction. Guest-side moves are
// zero-copy (the virtio PMD passes descriptors), so all payload copies are
// accounted in the vhost backend.
#pragma once

#include "core/counter.h"
#include "core/metrics.h"
#include "ring/port.h"
#include "ring/spsc_ring.h"

namespace nfvsb::ring {

/// virtio ring size used by QEMU by default.
inline constexpr std::size_t kVirtioRingDepth = 256;

/// VM-side view of some host attachment (virtio or ptnet): what a guest
/// application (l2fwd, MoonGen-in-VM) sends and receives through.
class GuestPort {
 public:
  virtual ~GuestPort() = default;
  /// Receive a packet the host side transmitted toward the VM.
  virtual pkt::PacketHandle rx() = 0;
  /// Transmit a packet, or a generator's unbuilt frame, toward the host
  /// side. False on ring-full drop.
  virtual bool tx(pkt::Frame&& f) = 0;
  /// Ring the guest polls for RX (to install watchers/sinks).
  virtual SpscRing& rx_ring() = 0;
  virtual SpscRing& tx_ring() = 0;
  [[nodiscard]] virtual const std::string& name() const = 0;
};

class VhostUserPort final : public Port {
 public:
  explicit VhostUserPort(std::string name,
                         std::size_t ring_depth = kVirtioRingDepth)
      : Port(std::move(name), PortKind::kVhostUser, ring_depth) {
    if (core::MetricSink* reg = core::metrics()) {
      registry_ = reg;
      reg->add_counter(this, "port/" + this->name() + "/kicks", &kicks_);
    }
  }

  ~VhostUserPort() override {
    if (registry_ != nullptr) registry_->remove(this);
  }

  // The backend copies in both directions (rte_vhost enqueue/dequeue).
  [[nodiscard]] bool copies_on_rx() const override { return true; }
  [[nodiscard]] bool copies_on_tx() const override { return true; }

  /// Guest "kicks" (doorbells): one per empty->non-empty guest enqueue.
  [[nodiscard]] std::uint64_t kicks() const { return kicks_; }
  void note_kick() { ++kicks_; }

 private:
  core::Counter kicks_;
  core::MetricSink* registry_{nullptr};
};

/// The VM-facing side of a vhost-user attachment.
class GuestVirtioPort final : public GuestPort {
 public:
  explicit GuestVirtioPort(VhostUserPort& backend)
      : backend_(backend), name_(backend.name() + ".guest") {}

  pkt::PacketHandle rx() override { return backend_.out().dequeue(); }

  bool tx(pkt::Frame&& f) override {
    const bool was_empty = backend_.in().empty();
    const bool ok = backend_.in().enqueue(std::move(f));
    if (ok && was_empty) backend_.note_kick();
    return ok;
  }

  SpscRing& rx_ring() override { return backend_.out(); }
  SpscRing& tx_ring() override { return backend_.in(); }
  [[nodiscard]] const std::string& name() const override { return name_; }

 private:
  VhostUserPort& backend_;
  std::string name_;
};

}  // namespace nfvsb::ring
