// Shared machinery of the scenario topologies and the run that drives
// them (internal header).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/metrics.h"
#include "core/simulator.h"
#include "core/trace_sink.h"
#include "hw/nic.h"
#include "hw/numa.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "pkt/packet_pool.h"
#include "ring/port.h"
#include "scenario/scenario.h"
#include "switches/switch_base.h"
#include "vnf/chain.h"
#include "vnf/l2fwd.h"
#include "vnf/vale_guest.h"
#include "vnf/vm.h"

namespace nfvsb::scenario::detail {

/// Everything a scenario owns. Declaration order fixes teardown order:
/// the registry dies last (components deregister from their destructors),
/// then the simulator (pending-event lambdas may hold packets), then the
/// pool (all ring-held packets must be home by then). The trace scope
/// uninstalls before its recorder is destroyed, and the recorder before the
/// simulator it timestamps from.
struct Env {
  explicit Env(const ScenarioConfig& cfg)
      : ring_ops_at_start(ring::ops_on_this_thread()),
        registry(make_registry(cfg)),
        registry_scope(registry.get()),
        sim(cfg.seed),
        tracer(make_tracer(sim, cfg)),
        trace_scope(tracer.get()),
        testbed(sim, testbed_config(cfg)),
        pool(pool_buffers(testbed)) {
    if (registry && cfg.queue_sample_period > 0) {
      sampler.emplace(sim, *registry, cfg.queue_sample_period, t_stop(cfg));
    }
  }

  /// The pool is sized as a DPDK application sizes its mempool (OvS-DPDK's
  /// dpdk_calculate_mbufs, l2fwd's ports x (RX + TX descriptors + burst +
  /// cache)): every NIC descriptor, plus room for the rings that are not
  /// NIC rings (vrings, netmap rings, switch links: at most 17,408 slots
  /// with one SUT worker, 32,768 with sixteen) and the switches' batches.
  /// The generator side's descriptors hold no SUT buffer (its RX rings are
  /// sinks, its TX rings hold unbuilt frames), which leaves room to spare,
  /// so no landing finds the pool dry. One SUT worker needs no more than
  /// 1 << 16; the slab is touched only where it is used.
  static std::size_t pool_buffers(hw::Testbed& testbed) {
    return std::max<std::size_t>(1 << 16,
                                 testbed.nic_descriptors() + (1 << 15));
  }

  static std::unique_ptr<obs::Registry> make_registry(
      const ScenarioConfig& cfg) {
    if (!cfg.observe && cfg.queue_sample_period <= 0) return nullptr;
    return std::make_unique<obs::Registry>();
  }

  static std::unique_ptr<obs::TraceRecorder> make_tracer(
      core::Simulator& sim, const ScenarioConfig& cfg) {
    if (cfg.trace_path.empty()) return nullptr;
    obs::TraceRecorder::Config tc;
    tc.path = cfg.trace_path;
    tc.packet_sample_every = cfg.trace_packet_sample;
    return std::make_unique<obs::TraceRecorder>(sim, tc);
  }

  /// Fold the simulator's work, and in observed runs the registry
  /// snapshot, the simulator's counts and any sampler summaries, into `r`.
  /// Call after the final drain, before the Env goes out of scope.
  void collect(ScenarioResult& r) const {
    r.work = {sim.events_processed(), sim.lanes_fired(), pool.handed_out(),
              ring::ops_on_this_thread() - ring_ops_at_start};
    if (!registry) return;
    r.counters = registry->snapshot();
    r.counters.emplace_back("sim/events_processed", sim.events_processed());
    r.counters.emplace_back("sim/lane_fired", sim.lanes_fired());
    if (sampler) sampler->append_summary(r.counters);
    std::sort(r.counters.begin(), r.counters.end());
  }

  static hw::Testbed::Config testbed_config(const ScenarioConfig& cfg) {
    hw::Testbed::Config tc;
    tc.cores_per_node = 24;
    // Table 2 tuning: FastClick raises the descriptor ring size to 4096.
    if (cfg.sut == switches::SwitchType::kFastClick) {
      tc.nic.rx_ring_depth = 4096;
      tc.nic.tx_ring_depth = 4096;
    }
    // t4p4s generated drivers configure deep descriptor rings.
    if (cfg.sut == switches::SwitchType::kT4p4s) {
      tc.nic.rx_ring_depth = 2048;
      tc.nic.tx_ring_depth = 2048;
    }
    // OvS-DPDK defaults its DPDK ports to 2048 descriptors (n_rxq_desc).
    if (cfg.sut == switches::SwitchType::kOvsDpdk) {
      tc.nic.rx_ring_depth = 2048;
      tc.nic.tx_ring_depth = 2048;
    }
    if (cfg.nic_ring_depth > 0) {
      tc.nic.rx_ring_depth = cfg.nic_ring_depth;
      tc.nic.tx_ring_depth = cfg.nic_ring_depth;
    }
    if (cfg.sut_workers > 1) {
      tc.nic.num_queues = static_cast<std::size_t>(cfg.sut_workers);
    }
    return tc;
  }

  /// ring::ops_on_this_thread() before any of this scenario's rings.
  std::uint64_t ring_ops_at_start;
  std::unique_ptr<obs::Registry> registry;
  core::MetricsScope registry_scope;
  core::Simulator sim;
  std::unique_ptr<obs::TraceRecorder> tracer;
  core::TraceInstall trace_scope;
  hw::Testbed testbed;
  pkt::PacketPool pool;
  std::optional<obs::QueueSampler> sampler;

  [[nodiscard]] core::SimTime t_stop(const ScenarioConfig& cfg) const {
    return cfg.warmup + cfg.measure;
  }
};

/// Where a direction's traffic enters or leaves the data path: a node-1
/// NIC port (MoonGen's side of the cable) or a guest port inside a VM.
struct Endpoint {
  Endpoint(hw::NicPort& port) : nic(&port) {}
  Endpoint(ring::Port& port) : guest(&port) {}
  hw::NicPort* nic{nullptr};
  /// The guest view of a VM device (vnf::Vm::attach).
  ring::Port* guest{nullptr};
};

/// One traffic direction of a topology.
struct Direction {
  Endpoint from;
  Endpoint to;
  /// First SUT egress port on the way (keys the t4p4s l2fwd table).
  std::size_t first_out;
  /// Generator origin tag (also names its counters).
  std::uint32_t origin;
  /// Use the reverse-direction frame addresses.
  bool reverse_frame;
};

/// What a topology builder wired for one scenario kind: the SUT instances,
/// VMs and VNFs it owns (alive until the run is accounted), and the
/// directions to drive, forward first. Members are destroyed bottom-up, so
/// VNFs and VMs go before the switches their ports belong to.
struct Topology {
  /// SUT instances, started; their losses are the ledger's sut_* fields.
  std::vector<std::unique_ptr<switches::SwitchBase>> suts;
  std::vector<std::unique_ptr<vnf::Vm>> vms;
  std::unique_ptr<vnf::VmChain> chain;
  std::vector<std::unique_ptr<vnf::GuestVale>> guest_vales;
  std::unique_ptr<vnf::L2Fwd> bounce;
  /// Every VNF data path above; their losses are the ledger's vnf_* fields.
  std::vector<switches::SwitchBase*> vnfs;
  std::vector<Direction> directions;
  /// Offered rate per direction when the kind models its own (v2v latency);
  /// cfg.rate_pps otherwise.
  std::optional<double> rate_pps;
};

/// Build, wire and start the data path of `cfg.kind` (everything but the
/// traffic endpoints), in the construction order that fixes each
/// component's random stream.
Topology build_topology(const ScenarioConfig& cfg, Env& env);

}  // namespace nfvsb::scenario::detail
