// Per-layer harnesses of the traced run. Each one builds the smallest rig
// that exercises one layer through its public interface and times it from
// the outside: host ns per operation (median over repetitions), plus exact
// counts (simulator events, heap allocations) where the layer has them.
// Exact counts come from two independent rigs built identically; they must
// agree bit-for-bit.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/event_queue.h"
#include "core/simulator.h"
#include "hw/cable.h"
#include "hw/cpu_core.h"
#include "hw/nic.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "ring/port.h"
#include "ring/spsc_ring.h"
#include "ring/vhost_user_port.h"
#include "stats/histogram.h"
#include "switches/bess/bess_switch.h"
#include "switches/fastclick/fastclick_switch.h"
#include "switches/ovs/ovs_ctl.h"
#include "switches/ovs/ovs_switch.h"
#include "switches/registry.h"
#include "switches/snabb/snabb_switch.h"
#include "switches/t4p4s/t4p4s_switch.h"
#include "switches/vpp/cli.h"
#include "switches/vpp/vpp_switch.h"
#include "traffic/moongen.h"
#include "vnf/l2fwd.h"

namespace perfbench {
namespace {

namespace core = nfvsb::core;
namespace pkt = nfvsb::pkt;
namespace sw = nfvsb::switches;

constexpr int kReps = 5;
constexpr std::size_t kBurst = 32;
constexpr std::uint64_t kSeed = 0x5eed;

/// Median host ns per operation of `body`, which performs `ops` operations.
template <class F>
double ns_per_op(std::uint64_t ops, F&& body, int reps = kReps) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    body();
    v.push_back((now_s() - t0) * 1e9 / static_cast<double>(ops));
  }
  return median(v);
}

pkt::FrameSpec frame64() {
  pkt::FrameSpec f;
  f.frame_bytes = 64;
  // Addresses the harness switch's port 1 (the t4p4s table key).
  f.dst_mac = pkt::MacAddress::from_u64(0x024d4d4d4d01ULL);
  return f;
}

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 33;
}

// --- core --------------------------------------------------------------------

void core_layer(std::vector<Metric>& out) {
  constexpr std::uint64_t kOps = 400'000;
  core::EventQueue q;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  core::SimTime now = 0;
  for (int i = 0; i < 1024; ++i) {
    (void)q.schedule(now + 1 + static_cast<core::SimTime>(lcg(rng) % 1'000'000),
                     [] {});
  }
  out.push_back({"core.event_ns", ns_per_op(kOps, [&] {
                   for (std::uint64_t i = 0; i < kOps; ++i) {
                     (void)q.schedule(
                         now + 1 +
                             static_cast<core::SimTime>(lcg(rng) % 1'000'000),
                         [] {});
                     now = q.pop().time;
                   }
                 }),
                 "ns"});
  q.clear();

  std::uint64_t fired = 0;
  out.push_back({"core.timer_rearm_ns", ns_per_op(kOps, [&] {
                   core::Simulator sim;
                   (void)sim.schedule_every(0, 1000,
                                            core::EventFn([&fired] { ++fired; }));
                   sim.run_until(static_cast<core::SimTime>(kOps - 1) * 1000);
                 }),
                 "ns"});
}

// --- pkt -----------------------------------------------------------------------

void pkt_layer(std::vector<Metric>& out) {
  std::vector<double> ctor_ms;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_s();
    auto pool = std::make_unique<pkt::PacketPool>(1 << 16);
    ctor_ms.push_back((now_s() - t0) * 1e3);
  }
  out.push_back({"pkt.pool_ctor_ms", median(ctor_ms), "ms"});

  constexpr std::uint64_t kOps = 1'000'000;
  pkt::PacketPool pool(1024);
  out.push_back({"pkt.alloc_free_ns", ns_per_op(kOps, [&] {
                   for (std::uint64_t i = 0; i < kOps; ++i) {
                     pkt::PacketHandle h = pool.allocate();
                     h.reset();
                   }
                 }),
                 "ns"});

  pkt::PacketHandle p = pool.allocate();
  const pkt::FrameSpec spec = frame64();
  out.push_back({"pkt.craft64_ns", ns_per_op(kOps / 2, [&] {
                   for (std::uint64_t i = 0; i < kOps / 2; ++i) {
                     pkt::craft_udp_frame(*p, spec);
                   }
                 }),
                 "ns"});
}

// --- ring ----------------------------------------------------------------------

void ring_layer(std::vector<Metric>& out) {
  constexpr std::uint64_t kOps = 1'000'000;
  pkt::PacketPool pool(64);
  nfvsb::ring::SpscRing ring("bench.ring", 512);
  pkt::PacketHandle h = pool.allocate();
  out.push_back({"ring.enq_deq_ns", ns_per_op(kOps, [&] {
                   for (std::uint64_t i = 0; i < kOps; ++i) {
                     ring.enqueue(std::move(h));
                     h = ring.dequeue();
                   }
                 }),
                 "ns"});
}

// --- hw ------------------------------------------------------------------------

/// Two NIC ports over a cable; frames pushed through A's TX ring arrive in
/// B's RX ring (a sink that frees them).
struct NicRig {
  core::Simulator sim{kSeed};
  pkt::PacketPool pool{4096};
  nfvsb::hw::NicPort a{sim, "bench.nic0"};
  nfvsb::hw::NicPort b{sim, "bench.nic1"};
  nfvsb::hw::Cable cable{sim, a, b};
  pkt::PacketHandle tmpl = pool.allocate();
  std::uint64_t received{0};

  NicRig() {
    pkt::craft_udp_frame(*tmpl, frame64());
    b.rx_ring().set_sink([this](pkt::PacketHandle) { ++received; });
  }

  /// Push `bursts` bursts; returns host seconds spent in the NIC.
  double push(int bursts) {
    double busy = 0;
    std::vector<pkt::PacketHandle> batch(kBurst);
    for (int k = 0; k < bursts; ++k) {
      for (auto& h : batch) h = pool.clone(*tmpl);
      const double t0 = now_s();
      for (auto& h : batch) a.tx_ring().enqueue(std::move(h));
      sim.run();
      busy += now_s() - t0;
    }
    return busy;
  }
};

void hw_layer(std::vector<Metric>& out, bool& exact_ok) {
  constexpr int kBursts = 4096;
  constexpr double kFrames = kBursts * static_cast<double>(kBurst);
  std::vector<double> ns;
  std::uint64_t events[2] = {0, 0};
  for (int r = 0; r < kReps; ++r) {
    NicRig rig;
    rig.push(64);  // warm-up
    const std::uint64_t e0 = rig.sim.events_processed();
    ns.push_back(rig.push(kBursts) * 1e9 / kFrames);
    if (r < 2) events[r] = rig.sim.events_processed() - e0;
    if (rig.received != (kBursts + 64) * kBurst) exact_ok = false;
  }
  if (events[0] != events[1]) exact_ok = false;
  out.push_back({"hw.nic_ns_per_frame", median(ns), "ns"});
  out.push_back({"hw.nic_events_per_frame",
                 static_cast<double>(events[0]) / kFrames, "count"});
}

// --- switches ------------------------------------------------------------------

/// One switch from the registry with two physical-kind ring ports, wired
/// port 0 -> port 1 through its native configuration interface. The
/// scenario builders' wiring helper is internal to them
/// (scenario/detail.h), so the harness configures each switch itself.
struct SwitchRig {
  core::Simulator sim{kSeed};
  nfvsb::hw::CpuCore cpu{sim, "bench.core"};
  pkt::PacketPool pool{4096};
  std::unique_ptr<sw::SwitchBase> sut;
  pkt::PacketHandle tmpl = pool.allocate();
  std::uint64_t delivered{0};

  explicit SwitchRig(sw::SwitchType t)
      : sut(sw::make_switch(t, sim, cpu, "bench")) {
    pkt::craft_udp_frame(*tmpl, frame64());
    for (int i = 0; i < 2; ++i) {
      sut->add_port(std::make_unique<nfvsb::ring::RingPort>(
          "bench:p" + std::to_string(i), nfvsb::ring::PortKind::kPhysical));
    }
    wire(t);
    sut->port(1).out().set_sink([this](pkt::PacketHandle) { ++delivered; });
    sut->start();
  }

  void wire(sw::SwitchType t) {
    switch (t) {
      case sw::SwitchType::kBess:
        dynamic_cast<sw::bess::BessSwitch&>(*sut).wire(0, 1);
        return;
      case sw::SwitchType::kVpp: {
        sw::vpp::VppCli cli(dynamic_cast<sw::vpp::VppSwitch&>(*sut));
        cli.register_port("port0", 0);
        cli.register_port("port1", 1);
        cli.run("test l2patch rx port0 tx port1");
        return;
      }
      case sw::SwitchType::kFastClick:
        dynamic_cast<sw::fastclick::FastClickSwitch&>(*sut).configure(
            "FromDPDKDevice(0) -> EtherMirror() -> ToDPDKDevice(1);\n");
        return;
      case sw::SwitchType::kOvsDpdk:
        sw::ovs::OvsOfctl(dynamic_cast<sw::ovs::OvsSwitch&>(*sut))
            .run("ovs-ofctl add-flow br0 \"priority=100,in_port=1,"
                 "actions=output:2\"");
        return;
      case sw::SwitchType::kT4p4s:
        dynamic_cast<sw::t4p4s::T4p4sSwitch&>(*sut).controller(
            "table_add l2fwd forward 02:4d:4d:4d:4d:01 => 1");
        return;
      case sw::SwitchType::kSnabb: {
        auto& snabb = dynamic_cast<sw::snabb::SnabbSwitch&>(*sut);
        for (std::size_t i = 0; i < 2; ++i) {
          snabb.engine().app(std::make_unique<sw::snabb::Intel82599App>(
              "nic" + std::to_string(i), i));
        }
        snabb.engine().link("nic0.tx -> nic1.rx");
        snabb.commit();
        return;
      }
      case sw::SwitchType::kVale:
        return;  // L2 learning + flood: no static wiring
    }
  }

  /// Feed `bursts` bursts of 64 B frames into port 0, draining the
  /// simulator after each; returns host seconds spent in the switch.
  double feed(int bursts) {
    double busy = 0;
    std::vector<pkt::PacketHandle> batch(kBurst);
    for (int k = 0; k < bursts; ++k) {
      for (auto& h : batch) h = pool.clone(*tmpl);
      const double t0 = now_s();
      for (auto& h : batch) sut->port(0).in().enqueue(std::move(h));
      sim.run();
      busy += now_s() - t0;
    }
    return busy;
  }
};

const char* metric_key(sw::SwitchType t) {
  switch (t) {
    case sw::SwitchType::kBess: return "bess";
    case sw::SwitchType::kSnabb: return "snabb";
    case sw::SwitchType::kOvsDpdk: return "ovs";
    case sw::SwitchType::kFastClick: return "fastclick";
    case sw::SwitchType::kVpp: return "vpp";
    case sw::SwitchType::kVale: return "vale";
    case sw::SwitchType::kT4p4s: return "t4p4s";
  }
  return "?";
}

void switch_layer(std::vector<Metric>& out, bool& exact_ok) {
  constexpr int kBursts = 1024;
  constexpr double kPkts = kBursts * static_cast<double>(kBurst);
  for (sw::SwitchType t : sw::kAllSwitches) {
    std::vector<double> ns;
    std::uint64_t events[2] = {0, 0};
    std::uint64_t allocs[2] = {0, 0};
    std::uint64_t delivered[2] = {0, 0};
    for (int r = 0; r < kReps; ++r) {
      SwitchRig rig(t);
      rig.feed(64);  // warm-up: tables, caches, JIT traces
      const std::uint64_t e0 = rig.sim.events_processed();
      const std::uint64_t a0 = heap_allocs();
      const std::uint64_t d0 = rig.delivered;
      ns.push_back(rig.feed(kBursts) * 1e9 / kPkts);
      if (r < 2) {
        allocs[r] = heap_allocs() - a0;
        events[r] = rig.sim.events_processed() - e0;
        delivered[r] = rig.delivered - d0;
      }
    }
    if (events[0] != events[1] || allocs[0] != allocs[1] ||
        delivered[0] != delivered[1] || delivered[0] == 0) {
      exact_ok = false;
    }
    const std::string key = std::string("switches.") + metric_key(t);
    out.push_back({key + ".ns_per_pkt", median(ns), "ns"});
    out.push_back({key + ".allocs_per_pkt",
                   static_cast<double>(allocs[0]) / kPkts, "count"});
    out.push_back({key + ".events_per_pkt",
                   static_cast<double>(events[0]) / kPkts, "count"});
  }
}

// --- traffic -------------------------------------------------------------------

void traffic_layer(std::vector<Metric>& out) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    core::Simulator sim{kSeed};
    pkt::PacketPool pool{4096};
    nfvsb::hw::NicPort a{sim, "bench.nic0"};
    nfvsb::hw::NicPort b{sim, "bench.nic1"};
    nfvsb::hw::Cable cable{sim, a, b};
    nfvsb::traffic::MoonGen::Config cfg;
    cfg.frame = frame64();
    nfvsb::traffic::MoonGen gen(sim, pool, cfg);
    gen.attach_tx_nic(a);
    gen.attach_rx_nic(b);
    gen.start_tx(0, core::from_ms(5));
    const double t0 = now_s();
    sim.run();
    ns.push_back((now_s() - t0) * 1e9 / static_cast<double>(gen.tx_sent()));
  }
  out.push_back({"traffic.moongen_ns_per_pkt", median(ns), "ns"});
}

// --- vnf -----------------------------------------------------------------------

void vnf_layer(std::vector<Metric>& out) {
  constexpr int kBursts = 2048;
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    core::Simulator sim{kSeed};
    nfvsb::hw::CpuCore vcpu{sim, "bench.vcpu"};
    pkt::PacketPool pool{4096};
    nfvsb::ring::VhostUserPort dev0{"bench.v0"};
    nfvsb::ring::VhostUserPort dev1{"bench.v1"};
    nfvsb::vnf::L2Fwd fwd(sim, vcpu, "bench.l2fwd");
    fwd.bind_virtio_pair(dev0, dev1);
    dev1.in().set_sink([](pkt::PacketHandle) {});
    fwd.start();
    pkt::PacketHandle tmpl = pool.allocate();
    pkt::craft_udp_frame(*tmpl, frame64());
    std::vector<pkt::PacketHandle> batch(kBurst);
    double busy = 0;
    for (int k = 0; k < kBursts; ++k) {
      for (auto& h : batch) h = pool.clone(*tmpl);
      const double t0 = now_s();
      for (auto& h : batch) dev0.out().enqueue(std::move(h));
      sim.run();
      busy += now_s() - t0;
    }
    ns.push_back(busy * 1e9 / (kBursts * static_cast<double>(kBurst)));
  }
  out.push_back({"vnf.l2fwd_ns_per_pkt", median(ns), "ns"});
}

// --- stats ---------------------------------------------------------------------

void stats_layer(std::vector<Metric>& out) {
  constexpr std::uint64_t kOps = 1'000'000;
  nfvsb::stats::Histogram h;
  std::uint64_t rng = 0x2545f4914f6cdd1dULL;
  out.push_back({"stats.hist_add_ns", ns_per_op(kOps, [&] {
                   for (std::uint64_t i = 0; i < kOps; ++i) {
                     h.add(static_cast<core::SimDuration>(lcg(rng) %
                                                          50'000'000));
                   }
                 }),
                 "ns"});
}

// --- scenario ------------------------------------------------------------------

void scenario_layer(std::vector<Metric>& out) {
  using nfvsb::scenario::Kind;
  for (Kind k : {Kind::kP2p, Kind::kP2v, Kind::kV2v, Kind::kLoopback}) {
    nfvsb::scenario::ScenarioConfig cfg;
    cfg.kind = k;
    cfg.sut = sw::SwitchType::kVpp;
    if (k == Kind::kLoopback) cfg.chain_length = 4;
    cfg.warmup = 0;
    cfg.measure = core::from_us(1);
    std::vector<double> ms;
    for (int r = 0; r < kReps; ++r) {
      const double t0 = now_s();
      (void)nfvsb::scenario::run_scenario(cfg);
      ms.push_back((now_s() - t0) * 1e3);
    }
    out.push_back({std::string("scenario.setup_ms.") +
                       nfvsb::scenario::to_string(k),
                   median(ms), "ms"});
  }
}

}  // namespace

void run_layers(std::vector<Metric>& out, bool& exact_ok) {
  core_layer(out);
  pkt_layer(out);
  ring_layer(out);
  hw_layer(out, exact_ok);
  switch_layer(out, exact_ok);
  traffic_layer(out);
  vnf_layer(out);
  stats_layer(out);
  scenario_layer(out);
}

}  // namespace perfbench
