// Common machinery for all seven switch models.
//
// A switch is a set of ports served by ONE CpuCore (the paper's single-core
// SUT rule) in round-robin service rounds:
//
//   wake (ring watcher, + wakeup latency if interrupt-driven)
//     -> round: pick next non-empty input port (RR), dequeue <= burst,
//        run the switch-specific functional datapath (process_batch),
//        charge rx/pipeline/tx costs + jitter on the core,
//     -> on completion: enqueue outputs (ring-full => drop AFTER the work
//        was spent — wasted work, the congestion-collapse mechanism),
//        then immediately start the next round if any input is non-empty.
//
// While a round is scheduled or running (active_), the input rings are
// marked busy: a NIC frame that lands meanwhile costs no event and is put
// into its RX ring by the next read of it (lazy RX, ring/spsc_ring.h).
// The switch reads every input before it goes idle, and from then on each
// arrival wakes it at its own picosecond, as a poll-mode driver's next
// rx_burst or an interrupt would. A frame put in late still waits, for
// batch assembly, from its arrival (SpscRing::arrival_time).
//
// Subclasses implement process_batch(): real parsing/lookup over real frame
// bytes, returning per-packet output ports and any extra pipeline cost.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/counter.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "hw/cpu_core.h"
#include "hw/nic.h"
#include "pkt/headers.h"
#include "pkt/packet.h"
#include "ring/netmap_port.h"
#include "ring/port.h"
#include "ring/vhost_user_port.h"
#include "switches/cost_model.h"

namespace nfvsb::core {
class MetricSink;
}  // namespace nfvsb::core

namespace nfvsb::switches {

/// One forwarding decision the wiring installs: in-port -> out-port.
struct PortPair {
  std::size_t in;
  std::size_t out;
};

/// The destination MAC that addresses egress port `port` in the t4p4s
/// l2fwd table. Generated frames and l2fwd rewrites use it for every
/// switch, so all seven see identical traffic.
pkt::MacAddress egress_mac(std::size_t port);

struct SwitchStats {
  core::Counter rx_packets;
  core::Counter tx_packets;
  /// Packets fully processed but dropped at a full output ring: the cycles
  /// were spent for nothing (wasted work).
  core::Counter tx_drops;
  /// Packets the datapath itself discarded (no route / TTL / filter).
  core::Counter discards;
  core::Counter rounds;
};

class SwitchBase {
 public:
  SwitchBase(core::Simulator& sim, hw::CpuCore& core, std::string name,
             CostModel cost);
  virtual ~SwitchBase();

  SwitchBase(const SwitchBase&) = delete;
  SwitchBase& operator=(const SwitchBase&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  // --- port management ------------------------------------------------------
  /// Bind a physical NIC queue pair as a switch port (PMD attach).
  ring::Port& attach_nic(hw::NicPort& nic);

  /// Create a vhost-user port (switch side). A VM reaches it through its
  /// guest view, vnf::Vm::attach(port).
  ring::VhostUserPort& add_vhost_user_port(const std::string& port_name);

  /// Create a ptnet port (netmap passthrough; VALE only in practice).
  ring::PtnetPort& add_ptnet_port(const std::string& port_name);

  /// Adopt an arbitrary pre-built port.
  ring::Port& add_port(std::unique_ptr<ring::Port> port);

  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }
  [[nodiscard]] ring::Port& port(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] const ring::Port& port(std::size_t i) const {
    return *ports_.at(i);
  }
  /// Index of `p` among this switch's ports; npos when foreign.
  [[nodiscard]] std::size_t index_of(const ring::Port& p) const;

  /// Program static forwarding for `pairs` through the switch's own
  /// configuration interface, all pairs at once (Snabb commits one app
  /// network, FastClick parses one config). Call once, after all ports
  /// exist and before start(). The default installs nothing: VALE learns,
  /// and l2fwd binds its own pair.
  virtual void wire(std::span<const PortPair> pairs) { (void)pairs; }

  /// Arm the data path (installs ring watchers). Call after all ports and
  /// datapath configuration are in place, before traffic starts.
  void start();

  [[nodiscard]] const SwitchStats& stats() const { return stats_; }
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }
  [[nodiscard]] CostModel& mutable_cost_model() { return cost_; }
  [[nodiscard]] hw::CpuCore& cpu() { return core_; }

  /// Derive an independent RNG stream (for stochastic datapath modules).
  [[nodiscard]] core::Rng split_rng() { return rng_.split(); }

 protected:
  /// One output decision: where `pkt` goes. Null `out` = discard.
  struct Tx {
    ring::Port* out{nullptr};
    pkt::PacketHandle pkt;
  };

  /// Switch-specific functional datapath. Takes what it forwards out of
  /// `batch` (all dequeued from `in`), appends forwarding decisions to
  /// `out`, and returns any EXTRA pipeline cost in ns for the whole batch
  /// (on top of the cost model's per-packet pipeline_ns). Handles left in
  /// `batch` are discards: the caller frees them when the call returns.
  /// Both vectors are the switch's reused round buffers, so an
  /// implementation that only moves handles allocates nothing.
  virtual double process_batch(ring::Port& in,
                               std::vector<pkt::PacketHandle>& batch,
                               std::vector<Tx>& out) = 0;

  core::Simulator& sim() { return sim_; }

  /// Transmit outside a service round (e.g. a VNF's TX drain timer); counts
  /// into the switch's tx statistics.
  bool direct_tx(ring::Port& p, pkt::PacketHandle pkt);

  /// Per-round accounting charges every batch packet that produced no Tx
  /// entry to `discards`. A datapath that instead BUFFERS packets across
  /// rounds (l2fwd's rte_eth_tx_buffer) must credit the counter back when
  /// it later emits them outside a Tx vector, or packet-conservation
  /// audits would double-count them as both discarded and delivered.
  void note_deferred_tx(std::uint64_t n) { stats_.discards -= n; }

 private:
  void on_enqueue(std::size_t port_idx, bool became_nonempty);
  /// Set active_ and tell the input rings whether a round will read them.
  void set_active(bool active);
  void wake(core::SimDuration latency);
  void run_round();
  void continue_or_idle();
  void arm_timeout_checks();
  [[nodiscard]] bool any_input_ready();
  [[nodiscard]] bool port_ready(std::size_t i);

  core::Simulator& sim_;
  hw::CpuCore& core_;
  std::string name_;
  CostModel cost_;
  core::Rng rng_;
  std::vector<std::unique_ptr<ring::Port>> ports_;
  /// First-enqueue time per port since its last service (batch assembly).
  std::vector<core::SimTime> wait_since_;
  std::size_t rr_next_{0};
  bool started_{false};
  bool active_{false};  // a round is scheduled or executing
  /// Time of the last physical-port interrupt (for ITR coalescing).
  core::SimTime last_irq_{-1};
  /// Input port served by the previous round (alternation detection);
  /// ports_.size() = none yet.
  std::size_t last_served_{static_cast<std::size_t>(-1)};
  SwitchStats stats_;
  /// Round buffers, reused so the steady-state round never allocates:
  /// packets dequeued for the current round, and its output decisions,
  /// held until the round's completion transmits them. Safe to share
  /// because active_ keeps at most one round in flight.
  std::vector<pkt::PacketHandle> batch_;
  std::vector<Tx> out_;

 protected:
  /// Non-null when a core::MetricSink was installed at construction;
  /// subclasses may register extra counters against it (deregistration of
  /// everything owned by `this` happens in ~SwitchBase).
  [[nodiscard]] core::MetricSink* registry() { return registry_; }

 private:
  core::MetricSink* registry_{nullptr};
};

}  // namespace nfvsb::switches
