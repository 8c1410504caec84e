#include "scenario/scenario.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "pkt/crafting.h"
#include "scenario/detail.h"
#include "stats/latency_recorder.h"
#include "stats/throughput_meter.h"
#include "switches/bess/bess_switch.h"
#include "switches/fastclick/fastclick_switch.h"
#include "switches/ovs/ovs_ctl.h"
#include "switches/ovs/ovs_switch.h"
#include "switches/snabb/snabb_switch.h"
#include "switches/switch_base.h"
#include "switches/t4p4s/t4p4s_switch.h"
#include "switches/vale/vale_switch.h"
#include "switches/vpp/cli.h"
#include "switches/vpp/vpp_switch.h"

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

std::optional<std::string> validate(const ScenarioConfig& cfg) {
  if (cfg.kind == Kind::kLoopback) {
    if (cfg.chain_length < 1) return "chain_length must be >= 1";
    if (cfg.sut == switches::SwitchType::kBess &&
        cfg.chain_length > switches::bess::BessSwitch::kMaxVms) {
      return "BESS cannot attach more than 3 VMs (QEMU incompatibility, "
             "paper footnote 5)";
    }
  }
  // Only the p2p builder attaches one worker per RSS queue and only its
  // generators spread traffic over flows. Elsewhere extra queues would go
  // unserved (their packets outlive the pool) and flows would be ignored.
  if (cfg.kind != Kind::kP2p) {
    if (cfg.sut_workers > 1) return "sut_workers > 1 is only modelled for p2p";
    if (cfg.num_flows != 1) return "num_flows != 1 is only modelled for p2p";
  }
  return std::nullopt;
}

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  if (auto reason = validate(cfg)) {
    ScenarioResult r;
    r.skipped = std::move(reason);
    return r;
  }
  switch (cfg.kind) {
    case Kind::kP2p: return run_p2p(cfg);
    case Kind::kP2v: return run_p2v(cfg);
    case Kind::kV2v: return run_v2v(cfg);
    case Kind::kLoopback: return run_loopback(cfg);
  }
  throw std::invalid_argument("unknown scenario kind");
}

namespace detail {

pkt::MacAddress dst_mac_for_port(std::size_t out_idx) {
  return pkt::MacAddress::from_u64(0x024d4d4d4d00ULL +
                                   (out_idx & 0xff));
}

namespace {

void wire_snabb(switches::snabb::SnabbSwitch& sw,
                const std::vector<WirePair>& pairs) {
  // One app per port referenced by any pair; link per pair.
  auto app_name = [](std::size_t port) {
    return "app" + std::to_string(port);
  };
  auto ensure_app = [&](std::size_t port) {
    if (sw.engine().find(app_name(port)) != nullptr) return;
    if (sw.port(port).kind() == ring::PortKind::kPhysical) {
      sw.engine().app(std::make_unique<switches::snabb::Intel82599App>(
          app_name(port), port));
    } else {
      sw.engine().app(std::make_unique<switches::snabb::VhostUserApp>(
          app_name(port), port));
    }
  };
  for (const WirePair& p : pairs) {
    ensure_app(p.in);
    ensure_app(p.out);
    sw.engine().link(app_name(p.in) + ".tx -> " + app_name(p.out) + ".rx");
  }
  sw.commit();
}

}  // namespace

void wire_sut(switches::SwitchBase& sut, switches::SwitchType type,
              const std::vector<WirePair>& pairs) {
  using switches::SwitchType;
  switch (type) {
    case SwitchType::kBess: {
      auto& bess = dynamic_cast<switches::bess::BessSwitch&>(sut);
      for (const WirePair& p : pairs) bess.wire(p.in, p.out);
      return;
    }
    case SwitchType::kVpp: {
      auto& vpp = dynamic_cast<switches::vpp::VppSwitch&>(sut);
      switches::vpp::VppCli cli(vpp);
      for (std::size_t i = 0; i < vpp.num_ports(); ++i) {
        cli.register_port("port" + std::to_string(i), i);
      }
      for (const WirePair& p : pairs) {
        cli.run("test l2patch rx port" + std::to_string(p.in) + " tx port" +
                std::to_string(p.out));
      }
      return;
    }
    case SwitchType::kFastClick: {
      auto& fc = dynamic_cast<switches::fastclick::FastClickSwitch&>(sut);
      std::string config;
      for (const WirePair& p : pairs) {
        config += "FromDPDKDevice(" + std::to_string(p.in) +
                  ") -> EtherMirror() -> ToDPDKDevice(" +
                  std::to_string(p.out) + ");\n";
      }
      fc.configure(config);
      return;
    }
    case SwitchType::kOvsDpdk: {
      auto& ovs = dynamic_cast<switches::ovs::OvsSwitch&>(sut);
      switches::ovs::OvsOfctl ofctl(ovs);
      for (const WirePair& p : pairs) {
        ofctl.run("ovs-ofctl add-flow br0 \"priority=100,in_port=" +
                  std::to_string(p.in + 1) +
                  ",actions=output:" + std::to_string(p.out + 1) + "\"");
      }
      return;
    }
    case SwitchType::kT4p4s: {
      auto& t4 = dynamic_cast<switches::t4p4s::T4p4sSwitch&>(sut);
      for (const WirePair& p : pairs) {
        t4.l2_table().add(dst_mac_for_port(p.out),
                          switches::t4p4s::P4Action::forward(p.out));
      }
      return;
    }
    case SwitchType::kSnabb: {
      wire_snabb(dynamic_cast<switches::snabb::SnabbSwitch&>(sut), pairs);
      return;
    }
    case SwitchType::kVale:
      return;  // L2 learning switch: no static wiring
  }
}

pkt::FrameSpec make_frame(const ScenarioConfig& cfg, bool reverse_dir,
                          std::size_t first_out_idx) {
  pkt::FrameSpec f;
  f.frame_bytes = cfg.frame_bytes;
  f.dst_mac = dst_mac_for_port(first_out_idx);
  if (!reverse_dir) {
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

void fill_latency(ScenarioResult& r, const stats::LatencyRecorder& lat) {
  r.lat_samples = lat.samples();
  r.lat_avg_us = lat.mean_us();
  r.lat_std_us = lat.stddev_us();
  r.lat_median_us = lat.median_us();
  r.lat_p99_us = lat.p99_us();
  r.lat_min_us = lat.min_us();
  r.lat_max_us = lat.max_us();
}

DirectionResult direction_result(const stats::ThroughputMeter& m) {
  DirectionResult d;
  d.gbps = m.gbps();
  d.mpps = m.pps() / 1e6;
  d.rx_packets = m.packets();
  return d;
}

}  // namespace detail
}  // namespace nfvsb::scenario
