// MoonGen model — the scriptable traffic generator/receiver the paper uses
// (Emmerich et al., IMC'15), and the one generator of this model: pkt-gen,
// netmap's tool in VALE guests, is MoonGen under another pacing law.
//
// Capabilities mirrored from the paper's usage:
//  * synthetic CBR UDP traffic, saturating (10 Gbps "disregarding any
//    drops") or paced to a fraction of R+;
//  * PTP latency probes injected into the background traffic, timestamped
//    in NIC hardware on TX and RX (p2p/loopback), or software-timestamped
//    when run inside a VM against virtio ports (v2v, Table 4);
//  * in a guest, a minimum gap per frame: the in-VM MoonGen paces to the
//    10 GbE line rate of the frame size, while pkt-gen is not paced at all
//    and is bounded only by the guest CPU's per-frame preparation cost,
//    which is how VALE's v2v throughput exceeds 10 Gbps-equivalent
//    (Sec. 5.1, Fig. 4c);
//  * RX monitoring with negligible overhead (implemented as a ring sink).
//    Its receive path is the one monitor of every scenario direction: the
//    paper's other monitors, pkt-gen's RX side and FloWatcher-DPDK, count
//    frames and time probes the same way, and the paper treats all three
//    overheads as negligible (Sec. 5.3).
//
// Like the real tool it costs the simulation nothing per frame. Every
// frame is a copy of one prebuilt frame (pkt::FrameRecipe), with the
// sequence tag and, over several flows, the UDP source port patched. Emit
// times follow from the pacing alone, and there is one emission path: the
// generator is a ring::TxSource, and its reader pulls every frame due by
// then (emit_next), each stamped with its own emit time. On a NIC the
// reader is the NIC's TX fetch, as the real MoonGen leaves pacing to the
// NIC's rate control, or, when the NIC faces a SUT port, the NIC's wire
// source, which the SUT's reads pull (hw/nic.h): a plain frame then goes
// out as its sequence number, and tx_sent() and the other counts read the
// NIC first, which brings the source up to date. On a guest port the
// reader is the guest's TX ring (SpscRing::feed_from_source), read by the
// switch that serves it, which an event wakes at each emit only while that
// switch is idle. Frames are enqueued unbuilt (pkt::Frame) and built where
// they are first read, so one a ring drops is never built; the generator
// must outlive its frames' builds. A frame sent over a NIC takes its pool
// buffer only where it lands, on either path, and a pool with none left
// drops it there as imissed; one a guest sends reserves its buffer at emit
// (pkt/frame.h). Probes are built at emit, and so are a guest's traced
// frames; pool_exhausted() counts the frames a dry pool kept from being
// sent. On the receive side,
// a monitored NIC hands each frame over in the firing that sends it down
// the wire, stamped with its arrival time, so meters and latency recorders
// take that time rather than now().
#pragma once

#include <cstdint>

#include "core/counter.h"
#include "core/simulator.h"
#include "core/units.h"
#include "hw/nic.h"
#include "pkt/crafting.h"
#include "pkt/frame.h"
#include "pkt/packet_pool.h"
#include "ring/tx_source.h"
#include "ring/port.h"
#include "stats/latency_recorder.h"
#include "stats/throughput_meter.h"

namespace nfvsb::core {
class MetricSink;
}  // namespace nfvsb::core

namespace nfvsb::traffic {

class MoonGen final : public ring::TxSource {
 public:
  struct Config {
    pkt::FrameSpec frame;
    /// Target TX rate; 0 = saturate (line rate on NIC targets, the
    /// minimum gap attach_tx_guest sets on guest targets).
    double rate_pps{0};
    /// Inject one PTP probe into the stream this often (0 = none).
    core::SimDuration probe_interval{0};
    /// Software timestamping (virtio ports do not support HW stamps).
    bool software_timestamps{false};
    /// RX meters ignore packets before this time (JIT/cache warm-up), and
    /// TX probes start no earlier.
    core::SimTime meter_open_at{0};
    /// Tag for demultiplexing at monitors.
    std::uint32_t origin{1};
    /// Number of distinct flows to cycle through (round-robin over UDP
    /// source ports). 1 = the paper's single-flow synthetic traffic; more
    /// flows defeat exact-match caches (see bench/ablation_flows).
    std::uint32_t num_flows{1};
  };

  MoonGen(core::Simulator& sim, pkt::PacketPool& pool, Config cfg);
  ~MoonGen();

  MoonGen(const MoonGen&) = delete;
  MoonGen& operator=(const MoonGen&) = delete;

  // --- TX ----------------------------------------------------------------
  /// Transmit through a physical NIC port (node-1 generator), which pulls
  /// the frames at its TX fetches.
  void attach_tx_nic(hw::NicPort& nic);
  /// Transmit through a guest view (vnf::Vm::attach), its frames at least
  /// `min_gap_ps` picoseconds apart (a virtio device has no intrinsic line
  /// rate: the guest's pacing or its CPU sets the gap).
  void attach_tx_guest(ring::Port& port, double min_gap_ps);

  /// Generate from `at` until `until`.
  void start_tx(core::SimTime at, core::SimTime until);

  // --- ring::TxSource --------------------------------------------------------
  [[nodiscard]] core::SimTime next_emit() const override;
  void emit_next() override;
  [[nodiscard]] const pkt::FrameRecipe* recipe() const override {
    return &recipe_;
  }

  // --- RX ----------------------------------------------------------------
  /// Monitor a physical NIC port (throughput + HW-timestamped probes).
  void attach_rx_nic(hw::NicPort& nic);
  /// Monitor a guest view (throughput + SW-timestamped probes).
  void attach_rx_guest(ring::Port& port);

  // --- results -------------------------------------------------------------
  [[nodiscard]] const stats::ThroughputMeter& rx_meter() const {
    return rx_meter_;
  }
  [[nodiscard]] stats::ThroughputMeter& rx_meter() { return rx_meter_; }
  [[nodiscard]] const stats::LatencyRecorder& latency() const {
    return latency_;
  }
  // A NIC's wire source emits as its peer reads, so these read the NIC's
  // TX ring first, which brings it up to date.
  [[nodiscard]] std::uint64_t tx_sent() const {
    sync_tx();
    return tx_sent_;
  }
  [[nodiscard]] std::uint64_t tx_failed() const {
    sync_tx();
    return tx_failed_;
  }
  [[nodiscard]] std::uint64_t pool_exhausted() const {
    sync_tx();
    return pool_exhausted_;
  }

 private:
  void sync_tx() const {
    if (tx_nic_ != nullptr) tx_nic_->tx_ring().catch_up();
  }
  void emit_one(core::SimTime at);
  /// Send the frame `meta` describes (`built` when it is built already)
  /// into the NIC's or the guest port's TX ring, or to the NIC's wire
  /// source.
  bool send(const pkt::FrameMeta& meta, pkt::PacketHandle built);
  /// Next inter-packet gap. Mutates pace_frac_: the exact gap_ps_ is
  /// rarely an integer picosecond count, and the fractional remainder is
  /// carried to the next frame so the long-run rate matches it exactly
  /// (truncating it every packet inflated the rate by up to 1 ps/packet).
  [[nodiscard]] core::SimDuration gap();
  /// Count a frame that arrived at `at`; `sw_latency` records a software-
  /// stamped probe's latency too.
  void on_rx(const pkt::Packet& p, core::SimTime at, bool sw_latency);

  core::Simulator& sim_;
  pkt::PacketPool& pool_;
  Config cfg_;
  pkt::FrameRecipe recipe_;
  hw::NicPort* tx_nic_{nullptr};
  ring::Port* tx_guest_{nullptr};
  /// Exact inter-frame gap in picoseconds.
  double gap_ps_{0};
  /// Fractional picoseconds owed to the pacing clock (see gap()).
  double pace_frac_{0};
  core::SimTime tx_until_{0};
  /// Emit time of the next frame (kNever before start_tx).
  core::SimTime next_at_{kNever};
  core::SimTime next_probe_at_{0};
  core::Counter tx_sent_;
  core::Counter tx_failed_;
  core::Counter pool_exhausted_;
  std::uint64_t seq_{0};
  std::uint64_t probe_seq_{0};
  stats::ThroughputMeter rx_meter_;
  stats::LatencyRecorder latency_;
  core::MetricSink* registry_{nullptr};
};

}  // namespace nfvsb::traffic
