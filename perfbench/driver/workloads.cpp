// The benchmark's three workloads. Every simulated generator is an
// open-loop CBR source; the host side is a closed loop (one point at a
// time, each to completion). Frames are 64 B throughout: the smallest frame
// makes the per-packet cost of each layer dominate.
#include <cstdio>

#include "bench.h"
#include "core/time.h"

namespace perfbench {
namespace {

using nfvsb::scenario::Kind;
using nfvsb::scenario::ScenarioConfig;
using nfvsb::switches::SwitchType;

/// Fig. 4a, 64 B unidirectional p2p (the anchors tests/calibration_test.cpp
/// pins).
double fig4a_gbps(SwitchType t) {
  switch (t) {
    case SwitchType::kBess:
    case SwitchType::kFastClick:
    case SwitchType::kVpp: return 10.0;
    case SwitchType::kSnabb: return 8.9;
    case SwitchType::kOvsDpdk: return 8.05;
    case SwitchType::kVale: return 5.56;
    case SwitchType::kT4p4s: return 5.6;
  }
  return 0;
}

ScenarioConfig base(Kind kind, SwitchType sut) {
  ScenarioConfig c;
  c.kind = kind;
  c.sut = sut;
  c.frame_bytes = 64;
  return c;
}

std::string name_of(SwitchType t) { return nfvsb::switches::to_string(t); }

/// p2p, saturating, all seven switches uni and bidi, plus OvS-DPDK past its
/// EMC's 8192 entries.
Workload p2p_sat() {
  Workload w{"p2p_sat", {}};
  for (SwitchType t : nfvsb::switches::kAllSwitches) {
    w.points.push_back({"p2p/uni/" + name_of(t), base(Kind::kP2p, t),
                        fig4a_gbps(t)});
  }
  for (SwitchType t : nfvsb::switches::kAllSwitches) {
    ScenarioConfig c = base(Kind::kP2p, t);
    c.bidirectional = true;
    w.points.push_back({"p2p/bidi/" + name_of(t), c});
  }
  ScenarioConfig flows = base(Kind::kP2p, SwitchType::kOvsDpdk);
  flows.num_flows = 32768;
  w.points.push_back({"p2p/uni/OvS-DPDK/flows32768", flows});
  return w;
}

/// p2v, v2v and 1-4 VNF loopback, saturating: packets cross vhost/ptnet
/// rings and l2fwd VNFs several times, and one switch steers many ports.
Workload virt_chain() {
  Workload w{"virt_chain", {}};
  for (SwitchType t : {SwitchType::kVpp, SwitchType::kVale, SwitchType::kSnabb,
                       SwitchType::kOvsDpdk}) {
    w.points.push_back({"p2v/" + name_of(t), base(Kind::kP2v, t)});
    w.points.push_back({"v2v/" + name_of(t), base(Kind::kV2v, t)});
    for (int vnfs = 1; vnfs <= 4; ++vnfs) {
      ScenarioConfig c = base(Kind::kLoopback, t);
      c.chain_length = vnfs;
      w.points.push_back(
          {"loopback-" + std::to_string(vnfs) + "/" + name_of(t), c});
    }
  }
  return w;
}

/// p2p and 1-VNF loopback at fixed absolute rates with PTP probes.
Workload latency_paced() {
  Workload w{"latency_paced", {}};
  for (SwitchType t : {SwitchType::kVpp, SwitchType::kT4p4s,
                       SwitchType::kOvsDpdk, SwitchType::kVale}) {
    for (Kind k : {Kind::kP2p, Kind::kLoopback}) {
      for (double mpps : {0.2, 1.0, 2.0}) {
        ScenarioConfig c = base(k, t);
        c.rate_pps = mpps * 1e6;
        c.probe_interval = nfvsb::core::from_us(40);
        char rate[16];
        std::snprintf(rate, sizeof rate, "%.1fMpps", mpps);
        w.points.push_back({std::string(nfvsb::scenario::to_string(k)) + "/" +
                                name_of(t) + "/" + rate,
                            c});
      }
    }
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name) {
  if (name == "p2p_sat") return p2p_sat();
  if (name == "virt_chain") return virt_chain();
  if (name == "latency_paced") return latency_paced();
  return Workload{name, {}};
}

}  // namespace perfbench
