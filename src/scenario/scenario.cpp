// run_scenario(): validate, build the kind's topology (topology.cpp), then
// one shared path for every kind — attach each direction's monitor and
// generator, run, close the meters, drain, and fill the result and the
// conservation ledger.
#include "scenario/scenario.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/units.h"
#include "pkt/crafting.h"
#include "pkt/headers.h"
#include "pkt/packet.h"
#include "scenario/detail.h"
#include "stats/latency_recorder.h"
#include "stats/throughput_meter.h"
#include "switches/bess/bess_switch.h"
#include "switches/switch_base.h"
#include "traffic/moongen.h"

namespace nfvsb::scenario {

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kP2p: return "p2p";
    case Kind::kP2v: return "p2v";
    case Kind::kV2v: return "v2v";
    case Kind::kLoopback: return "loopback";
  }
  return "?";
}

// Every field either applies to the kind's topology or is rejected here,
// naming the field: a config never runs with a setting silently ignored.
// Two modelled overrides remain, both in v2v latency mode (Table 4): VALE
// probes at the 1e4 pps ping cadence whatever rate_pps says (the paper
// measured VALE with ping), and rate_pps = 0 means the paper's 1 Mpps
// stream rather than saturation.
std::optional<std::string> validate(const ScenarioConfig& cfg) {
  const bool vale = cfg.sut == switches::SwitchType::kVale;
  const bool v2v_latency = cfg.kind == Kind::kV2v && cfg.probe_interval > 0;
  if (!std::isfinite(cfg.rate_pps) || cfg.rate_pps < 0) {
    return "rate_pps must be finite and >= 0";
  }
  if (cfg.probe_interval < 0) return "probe_interval must be >= 0";
  if (cfg.queue_sample_period < 0) return "queue_sample_period must be >= 0";
  if (cfg.l2fwd_drain < 0) return "l2fwd_drain must be >= 0";
  if (cfg.warmup < 0) return "warmup must be >= 0";
  if (cfg.measure <= 0) return "measure must be > 0";
  if (cfg.kind == Kind::kLoopback) {
    if (cfg.chain_length < 1) return "chain_length must be >= 1";
    if (cfg.sut == switches::SwitchType::kBess &&
        cfg.chain_length > switches::bess::BessSwitch::kMaxVms) {
      return "BESS cannot attach more than 3 VMs (QEMU incompatibility, "
             "paper footnote 5)";
    }
    if (cfg.chain_length > 5) {
      return "chain_length must be <= 5 (node 0 has 24 cores: one for the "
             "SUT, four per VM)";
    }
  } else if (cfg.chain_length != 1) {
    return "chain_length != 1 is only modelled for loopback";
  }
  if (cfg.sut_workers < 1) return "sut_workers must be >= 1";
  if (cfg.sut_workers > 16) {
    return "sut_workers must be <= 16 (82599 RSS spreads over 16 queues)";
  }
  if (cfg.frame_bytes < pkt::kMinCraftedFrame ||
      cfg.frame_bytes > pkt::kMaxFrameBytes) {
    return "frame_bytes must be in [" + std::to_string(pkt::kMinCraftedFrame) +
           ", " + std::to_string(pkt::kMaxFrameBytes) + "]";
  }
  if (cfg.num_flows < 1) return "num_flows must be >= 1";
  // Each flow is one UDP source port.
  if (cfg.num_flows > 65536) return "num_flows must be <= 65536";
  // Only the p2p topology attaches one worker per RSS queue and only NIC
  // generators spread traffic over flows. Elsewhere extra queues would go
  // unserved (their packets outlive the pool).
  if (cfg.kind != Kind::kP2p) {
    if (cfg.sut_workers > 1) return "sut_workers > 1 is only modelled for p2p";
    if (cfg.num_flows != 1) return "num_flows != 1 is only modelled for p2p";
  }
  if (cfg.reverse && cfg.kind != Kind::kP2v) {
    return "reverse is only modelled for p2v";
  }
  if (cfg.probe_interval > 0 && cfg.kind == Kind::kP2v) {
    return "probe_interval > 0 is not modelled for p2v (no probe path)";
  }
  if (cfg.nic_ring_depth > 0 && cfg.kind == Kind::kV2v) {
    return "nic_ring_depth has no effect on v2v (no NIC on the path)";
  }
  if (cfg.bidirectional && v2v_latency) {
    return "bidirectional is not modelled in v2v latency mode";
  }
  if (cfg.containers && (cfg.kind != Kind::kLoopback || vale)) {
    return "containers are only modelled for non-VALE loopback";
  }
  if (cfg.l2fwd_drain > 0 &&
      (vale || (cfg.kind != Kind::kLoopback && !v2v_latency))) {
    return "l2fwd_drain needs an l2fwd VNF (non-VALE loopback or v2v "
           "latency)";
  }
  return std::nullopt;
}

namespace {

using detail::Direction;
using detail::Endpoint;
using detail::Env;
using detail::Topology;

/// The direction's monitor: MoonGen's receive path at the terminal
/// endpoint, which stands in for every RX tool the paper used (MoonGen on
/// node 1, pkt-gen in a VALE guest, FloWatcher-DPDK in a DPDK guest).
std::unique_ptr<traffic::MoonGen> make_monitor(const ScenarioConfig& cfg,
                                               Env& env, const Endpoint& to) {
  traffic::MoonGen::Config c;
  c.meter_open_at = cfg.warmup;
  c.origin = 9;
  auto mon = std::make_unique<traffic::MoonGen>(env.sim, env.pool, c);
  if (to.nic != nullptr) {
    mon->attach_rx_nic(*to.nic);
  } else {
    mon->attach_rx_guest(*to.guest);
  }
  return mon;
}

pkt::FrameSpec make_frame(const ScenarioConfig& cfg, const Direction& d) {
  pkt::FrameSpec f;
  f.frame_bytes = cfg.frame_bytes;
  f.dst_mac = switches::egress_mac(d.first_out);
  if (!d.reverse_frame) {
    f.src_mac = pkt::MacAddress::from_u64(0x020a0a0a0a01ULL);
    f.src_ip = pkt::Ipv4Address::parse("10.0.0.1").value();
    f.dst_ip = pkt::Ipv4Address::parse("10.1.0.1").value();
    f.src_port = 1000;
    f.dst_port = 2000;
  } else {
    f.src_mac = pkt::MacAddress::from_u64(0x020b0b0b0b01ULL);
    f.src_ip = pkt::Ipv4Address::parse("10.1.0.2").value();
    f.dst_ip = pkt::Ipv4Address::parse("10.0.0.2").value();
    f.src_port = 3000;
    f.dst_port = 4000;
  }
  return f;
}

/// pkt-gen's per-frame preparation cost in a VALE guest, fixed plus per
/// byte: ~20 Mpps at 64 B on the testbed's cores.
constexpr double kPktGenPrepFixedNs = 42;
constexpr double kPktGenPrepByteNs = 0.075;

/// The direction's generator, attached and started: MoonGen on node 1, in a
/// DPDK guest, or under pkt-gen's law in a VALE guest.
std::unique_ptr<traffic::MoonGen> start_generator(
    const ScenarioConfig& cfg, Env& env, const Direction& d, double rate_pps,
    core::SimDuration probe_interval) {
  const bool pktgen =
      d.from.guest != nullptr && cfg.sut == switches::SwitchType::kVale;
  traffic::MoonGen::Config c;
  c.frame = make_frame(cfg, d);
  c.rate_pps = rate_pps;
  c.num_flows = cfg.num_flows;
  c.probe_interval = probe_interval;
  // A guest has no PTP-capable NIC: probes carry software timestamps.
  c.software_timestamps = d.from.guest != nullptr;
  // Probes start once the meters open; pkt-gen's at its first frame.
  c.meter_open_at = pktgen ? 0 : cfg.warmup;
  c.origin = d.origin;
  auto gen = std::make_unique<traffic::MoonGen>(env.sim, env.pool, c);
  if (d.from.nic != nullptr) {
    gen->attach_tx_nic(*d.from.nic);
  } else if (pktgen) {
    // pkt-gen is not paced: the guest CPU's preparation cost is the gap.
    const double prep_ns =
        kPktGenPrepFixedNs +
        kPktGenPrepByteNs * static_cast<double>(cfg.frame_bytes);
    gen->attach_tx_guest(*d.from.guest,
                         prep_ns * static_cast<double>(core::kNanosecond));
  } else {
    // In-VM MoonGen paces to the 10 GbE equivalent of the frame size.
    gen->attach_tx_guest(*d.from.guest,
                         static_cast<double>(core::kSecond) /
                             core::kTenGigE.line_rate_pps(cfg.frame_bytes));
  }
  gen->start_tx(0, env.t_stop(cfg));
  return gen;
}

DirectionResult direction_result(const stats::ThroughputMeter& m) {
  DirectionResult d;
  d.gbps = m.gbps();
  d.mpps = m.pps() / 1e6;
  d.rx_packets = m.packets();
  return d;
}

void fill_latency(ScenarioResult& r, const stats::LatencyRecorder& lat) {
  r.lat_samples = lat.samples();
  r.lat_avg_us = lat.mean_us();
  r.lat_std_us = lat.stddev_us();
  r.lat_median_us = lat.median_us();
  r.lat_p99_us = lat.p99_us();
  r.lat_min_us = lat.min_us();
  r.lat_max_us = lat.max_us();
}

/// Drive `topo`'s directions to completion and account for every packet.
/// Throughput and latency come from the meters' window; the ledger covers
/// the whole, fully drained run.
ScenarioResult run(const ScenarioConfig& cfg, Env& env, const Topology& topo) {
  const core::SimTime t_stop = env.t_stop(cfg);
  const std::vector<Direction>& dirs = topo.directions;

  // Monitors are built before any generator, which fixes the order of
  // duplicate counter names in observed runs.
  std::vector<std::unique_ptr<traffic::MoonGen>> mons;
  for (const Direction& d : dirs) mons.push_back(make_monitor(cfg, env, d.to));
  // Probes ride on the first direction, whose monitor reports latency.
  std::vector<std::unique_ptr<traffic::MoonGen>> gens;
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    gens.push_back(start_generator(
        cfg, env, dirs[i], topo.rate_pps.value_or(cfg.rate_pps),
        i == 0 ? cfg.probe_interval : core::SimDuration{0}));
  }

  for (const auto& mon : mons) mon->rx_meter().stop_at(t_stop);
  env.sim.run_until(t_stop);
  for (const auto& mon : mons) mon->rx_meter().close(t_stop);
  env.sim.run();  // drain everything in flight

  ScenarioResult r;
  r.fwd = direction_result(mons[0]->rx_meter());
  fill_latency(r, mons[0]->latency());
  if (mons.size() > 1) r.rev = direction_result(mons[1]->rx_meter());
  for (int p = 0; p < 2; ++p) r.nic_imissed += env.testbed.nic(0, p).imissed();
  // Whole-run conservation: NIC sinks count every frame off the wire;
  // guest RX rings are sink-drained by their monitor, so enqueued() counts
  // every frame delivered into the VM.
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    r.offered_packets += gens[i]->tx_sent();
    r.gen_tx_failures += gens[i]->tx_failed();
    const Endpoint& to = dirs[i].to;
    r.delivered_packets += to.nic != nullptr ? to.nic->rx_frames()
                                             : to.guest->rx_ring().enqueued();
  }
  for (const auto& sut : topo.suts) {
    r.sut_wasted_work += sut->stats().tx_drops;
    r.sut_discards += sut->stats().discards;
  }
  for (const switches::SwitchBase* vnf : topo.vnfs) {
    r.vnf_wasted_work += vnf->stats().tx_drops;
    r.vnf_discards += vnf->stats().discards;
  }
  env.collect(r);
  return r;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  if (auto reason = validate(cfg)) {
    ScenarioResult r;
    r.skipped = std::move(reason);
    return r;
  }
  Env env(cfg);
  const Topology topo = detail::build_topology(cfg, env);
  return run(cfg, env, topo);
}

}  // namespace nfvsb::scenario
