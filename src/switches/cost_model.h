// Per-switch data-path cost model.
//
// Each switch's functional pipeline decides WHERE packets go; the cost model
// decides HOW LONG the single SUT core is busy doing it. Costs are split by
// port kind (the paper's central observation is that vhost-user crossings,
// not switching logic, dominate virtualized scenarios) and into fixed
// per-packet and per-byte (copy) components.
//
// Calibration: constants for each switch are derived from the paper's own
// measurements; the derivations live in EXPERIMENTS.md and are checked by
// tests/calibration_test.cpp.
#pragma once

#include <cstdint>

#include "core/rng.h"
#include "core/time.h"
#include "ring/port.h"

namespace nfvsb::switches {

/// Costs of moving one packet across one port, by direction.
struct PortCosts {
  double rx_ns{0};        ///< fixed cost to receive one packet
  double tx_ns{0};        ///< fixed cost to transmit one packet
  double rx_byte_ns{0};   ///< per-byte copy cost on receive
  double tx_byte_ns{0};   ///< per-byte copy cost on transmit
};

struct CostModel {
  /// Fixed cost per service round (poll, batch bookkeeping).
  double batch_fixed_ns{40};
  /// Base pipeline cost per packet (parsing, lookup — switch-specific
  /// datapaths may add extra on top via their process_batch return value).
  double pipeline_ns{20};

  PortCosts physical;
  PortCosts vhost;
  PortCosts ptnet;
  PortCosts internal;

  /// Max packets taken from one input ring per service round.
  int burst{32};

  /// When > 0, the switch delays a round until `burst` packets are waiting
  /// or the oldest has waited this long (t4p4s-style batch assembly).
  core::SimDuration batch_timeout{0};

  /// Separate assembly timeout for vhost-user input ports (FastClick's
  /// output batching toward/from VMs is far lazier than its NIC path,
  /// which the paper sees as the 0.10 R+ loopback blow-up, Table 3).
  /// 0 = use batch_timeout.
  core::SimDuration batch_timeout_vhost{0};

  [[nodiscard]] core::SimDuration batch_timeout_for(ring::PortKind k) const {
    if (k == ring::PortKind::kVhostUser && batch_timeout_vhost > 0) {
      return batch_timeout_vhost;
    }
    return batch_timeout;
  }

  /// Extra stall process sampled only on rounds whose input is a vhost
  /// port (kick handling, vring reclamation): OvS-DPDK and t4p4s are
  /// stable in p2p yet "unstable under high input load" in the VM
  /// scenarios (Sec. 5.3) — this is that instability.
  double vhost_stall_prob{0.0};
  double vhost_stall_mean_us{0.0};

  /// Latency to wake the data path from idle when the wake comes from a
  /// PHYSICAL port (NIC interrupt moderation + handler; VALE/netmap).
  /// Zero for busy-polling DPDK switches.
  core::SimDuration wakeup_latency{0};

  /// Wake latency for virtual ports (ptnet doorbell / syscall path) —
  /// much cheaper than a NIC interrupt.
  core::SimDuration wakeup_latency_virtual{0};

  /// NIC interrupt moderation (ixgbe ITR): two RX interrupts are at least
  /// this far apart, so even under sustained load an interrupt-driven
  /// switch sees packets in ITR-spaced clumps. 0 = no moderation.
  core::SimDuration interrupt_coalescing{0};

  [[nodiscard]] core::SimDuration wakeup_for(ring::PortKind k) const {
    return k == ring::PortKind::kPhysical ? wakeup_latency
                                          : wakeup_latency_virtual;
  }

  /// Lognormal coefficient of variation applied to each round's service
  /// time (cache misses, branch noise). 0 = deterministic.
  double jitter_cv{0.0};

  /// Rare-stall process per round (LuaJIT trace recompiles / GC for Snabb,
  /// pipeline hiccups for t4p4s): with probability stall_prob the round
  /// additionally takes ~Exp(stall_mean_us).
  double stall_prob{0.0};
  double stall_mean_us{0.0};

  [[nodiscard]] const PortCosts& costs_for(ring::PortKind k) const {
    switch (k) {
      case ring::PortKind::kPhysical: return physical;
      case ring::PortKind::kVhostUser: return vhost;
      case ring::PortKind::kPtnet: return ptnet;
      case ring::PortKind::kInternal: return internal;
    }
    return internal;
  }

  /// virtio descriptor chains: frames larger than one buffer span
  /// ceil(bytes/chunk) descriptors; each EXTRA descriptor costs this much
  /// per vhost crossing (conversion + gather). This is what caps the
  /// vhost switches below 2x10G with large bidirectional frames (Fig. 4b)
  /// while leaving 64/256 B costs untouched.
  double vhost_extra_desc_ns{0};
  std::uint32_t vhost_desc_chunk{256};

  [[nodiscard]] double vhost_desc_cost_ns(std::uint32_t bytes) const {
    if (vhost_extra_desc_ns <= 0 || bytes <= vhost_desc_chunk) return 0.0;
    const std::uint32_t descs =
        (bytes + vhost_desc_chunk - 1) / vhost_desc_chunk;
    return vhost_extra_desc_ns * static_cast<double>(descs - 1);
  }

  /// Copy-bandwidth degradation when consecutive service rounds alternate
  /// between input ports (bidirectional traffic): the read/write streams
  /// of the two directions defeat the cache and prefetchers, inflating
  /// the BYTE-dependent portion of the round cost. 1.0 = no effect.
  /// Reproduces VALE's bidirectional v2v collapse (35 vs 55 Gbps, Sec 5.2:
  /// "bidirectional traffic doubles the number of packet copy operations").
  double alternation_byte_factor{1.0};

  /// Byte-dependent portion of the rx cost (scaled by alternation).
  [[nodiscard]] double rx_byte_cost_ns(ring::PortKind k,
                                       std::uint32_t bytes) const {
    double cost = costs_for(k).rx_byte_ns * static_cast<double>(bytes);
    if (k == ring::PortKind::kVhostUser) cost += vhost_desc_cost_ns(bytes);
    return cost;
  }
  [[nodiscard]] double tx_byte_cost_ns(ring::PortKind k,
                                       std::uint32_t bytes) const {
    double cost = costs_for(k).tx_byte_ns * static_cast<double>(bytes);
    if (k == ring::PortKind::kVhostUser) cost += vhost_desc_cost_ns(bytes);
    return cost;
  }

  /// Sample the jitter/stall processes for one round whose nominal service
  /// time is `nominal_ns`; returns the actual time in ns.
  [[nodiscard]] double sample_round_ns(double nominal_ns,
                                       core::Rng& rng) const;
};

}  // namespace nfvsb::switches
