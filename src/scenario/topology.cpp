// The paper's four scenarios (Fig. 3) as topologies: each builder creates
// and wires only what its kind owns — SUT instances and their ports, VMs,
// the loopback chain or the v2v bounce/echo VNF — and names the traffic
// directions. run_scenario() attaches the generators and monitors, runs
// and accounts, the same way for every kind.
//
// Construction and start order is part of each kind's behaviour: every
// switch and VNF constructor takes the next split of the simulator's
// random stream.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/nic.h"
#include "hw/numa.h"
#include "pkt/headers.h"
#include "ring/netmap_port.h"
#include "ring/port.h"
#include "ring/vhost_user_port.h"
#include "scenario/detail.h"
#include "scenario/scenario.h"
#include "switches/registry.h"
#include "switches/switch_base.h"
#include "vnf/chain.h"
#include "vnf/l2fwd.h"
#include "vnf/vale_guest.h"
#include "vnf/vm.h"

namespace nfvsb::scenario::detail {
namespace {

/// SUT port pairs between ports `a` and `b`: a -> b, b -> a, or both, as
/// the config's directions ask.
std::vector<switches::PortPair> port_pairs(const ScenarioConfig& cfg,
                                           std::size_t a, std::size_t b) {
  std::vector<switches::PortPair> pairs;
  if (!cfg.reverse || cfg.bidirectional) pairs.push_back({a, b});
  if (cfg.reverse || cfg.bidirectional) pairs.push_back({b, a});
  return pairs;
}

/// Traffic directions between endpoints `a` and `b`, mirroring
/// port_pairs(): forward a -> b (origin 1), reverse b -> a (origin 2).
std::vector<Direction> directions(const ScenarioConfig& cfg, Endpoint a,
                                  Endpoint b, std::size_t fwd_first_out,
                                  std::size_t rev_first_out) {
  std::vector<Direction> dirs;
  if (!cfg.reverse || cfg.bidirectional) {
    dirs.push_back({a, b, fwd_first_out, 1, false});
  }
  if (cfg.reverse || cfg.bidirectional) {
    dirs.push_back({b, a, rev_first_out, 2, true});
  }
  return dirs;
}

std::unique_ptr<switches::SwitchBase> make_sut(const ScenarioConfig& cfg,
                                               Env& env) {
  auto sut = switches::make_switch(cfg.sut, env.sim, env.testbed.take_core(0),
                                   "sut");
  if (cfg.tune_sut) cfg.tune_sut(*sut);
  return sut;
}

/// The SUT's port toward a VM device: ptnet "v<i>" on VALE, vhost-user
/// "vhost<i>" on the others.
ring::Port& add_vm_port(const ScenarioConfig& cfg, switches::SwitchBase& sut,
                        int i) {
  const bool vale = cfg.sut == switches::SwitchType::kVale;
  std::string name = vale ? "v" : "vhost";
  name += std::to_string(i);
  if (vale) return sut.add_ptnet_port(name);
  return sut.add_vhost_user_port(name);
}

/// A VNF VM with four node-0 vcpus (the paper's QEMU -smp 4).
vnf::Vm& add_vm(Topology& t, Env& env, const std::string& name) {
  std::vector<hw::CpuCore*> vcpus;
  for (int c = 0; c < 4; ++c) vcpus.push_back(&env.testbed.take_core(0));
  t.vms.push_back(std::make_unique<vnf::Vm>(name, std::move(vcpus)));
  return *t.vms.back();
}

// p2p (Fig. 3a): the SUT forwards between its two NUMA-0 NIC ports; MoonGen
// on node 1 generates and monitors.
Topology p2p(const ScenarioConfig& cfg, Env& env) {
  Topology t;
  // One data-plane worker per core; each serves its own RSS queue pair.
  // Worker 0 is "the SUT" for single-core runs (the paper's rule).
  for (int w = 0; w < cfg.sut_workers; ++w) {
    auto sw = switches::make_switch(
        cfg.sut, env.sim, env.testbed.take_core(0),
        cfg.sut_workers > 1 ? "sut.w" + std::to_string(w) : "sut");
    const auto q = static_cast<std::size_t>(w);
    for (int p = 0; p < 2; ++p) {
      hw::NicPort& nic = env.testbed.nic(0, p);
      sw->add_port(std::make_unique<ring::Port>(
          sw->name() + ":nic" + std::to_string(p) + ".q" + std::to_string(w),
          ring::PortKind::kPhysical, nic.rx_ring(q), nic.tx_ring(q)));
    }
    if (cfg.tune_sut) cfg.tune_sut(*sw);
    sw->wire(port_pairs(cfg, 0, 1));
    sw->start();
    t.suts.push_back(std::move(sw));
  }
  t.directions =
      directions(cfg, env.testbed.nic(1, 0), env.testbed.nic(1, 1), 1, 0);
  return t;
}

// p2v (Fig. 3b): the SUT forwards between a NIC and a VNF VM. Non-VALE
// switches expose a vhost-user port into the VM (the guest runs DPDK and
// MoonGen); VALE uses a ptnet port, and pkt-gen sends from the guest.
// `reverse` sends VM -> NIC only.
Topology p2v(const ScenarioConfig& cfg, Env& env) {
  Topology t;
  switches::SwitchBase& sut = *t.suts.emplace_back(make_sut(cfg, env));
  sut.attach_nic(env.testbed.nic(0, 0));  // port 0
  vnf::Vm& vm = add_vm(t, env, "vm1");
  ring::Port& guest = vm.attach(add_vm_port(cfg, sut, 0));  // port 1
  sut.wire(port_pairs(cfg, 0, 1));
  sut.start();
  t.directions = directions(cfg, env.testbed.nic(1, 0), guest, 1, 0);
  return t;
}

// v2v latency mode (Table 4): two interfaces per VM and software
// timestamps; VM2 bounces packets back through the SUT with l2fwd. For
// VALE the paper measured the RTT with plain ping: one interface per VM,
// the guest kernel's ICMP stack echoing, VALE learning/flooding MACs.
void v2v_latency(const ScenarioConfig& cfg, Env& env, Topology& t,
                 vnf::Vm& vm1, vnf::Vm& vm2) {
  switches::SwitchBase& sut = *t.suts.front();
  if (cfg.sut == switches::SwitchType::kVale) {
    // Ports: 0 = VM1, 1 = VM2.
    ring::Port& vm1_port = vm1.attach(sut.add_ptnet_port("vm1.eth0"));
    ring::Port& vm2_port = vm2.attach(sut.add_ptnet_port("vm2.eth0"));
    // ICMP echo reflector: guest kernel receives, swaps MACs, replies
    // after the stack traversal latency (~11 us rx+icmp+tx on the vcpu).
    // The handle moves into the event (SmallFn is move-only and holds it
    // inline), so an echo allocates nothing.
    vm2_port.in().set_sink([&env, &vm2_port](pkt::PacketHandle p) {
      env.sim.post_in(core::from_us(11), [p = std::move(p),
                                          &vm2_port]() mutable {
        pkt::EthHeader eth(p->bytes());
        if (eth.valid()) {
          const auto src = eth.src();
          const auto dst = eth.dst();
          eth.set_src(dst);
          eth.set_dst(src);
        }
        vm2_port.tx(std::move(p));
      });
    });
    sut.start();
    // Replies come back on the same interface. pkt-gen probes at the low
    // ping cadence approximate the paper's ping.
    t.directions.push_back({vm1_port, vm1_port, 1, 2, false});
    t.rate_pps = 1e4;
    return;
  }
  // Ports: 0,1 = VM1; 2,3 = VM2.
  auto& a = sut.add_vhost_user_port("vm1.a");
  auto& b = sut.add_vhost_user_port("vm1.b");
  auto& c = sut.add_vhost_user_port("vm2.a");
  auto& d = sut.add_vhost_user_port("vm2.b");
  ring::Port& vm1_tx = vm1.attach(a);
  ring::Port& vm1_rx = vm1.attach(b);
  t.bounce = std::make_unique<vnf::L2Fwd>(env.sim, vm2.vcpu(0), "vm2:l2fwd");
  t.bounce->bind_virtio_pair(c, d);
  // Returning packets must address SUT egress port 1 (t4p4s table key).
  t.bounce->set_dst_mac_rewrite(1, switches::egress_mac(1));
  if (cfg.l2fwd_drain > 0) t.bounce->set_drain_timeout(cfg.l2fwd_drain);
  t.vnfs.push_back(t.bounce.get());
  // VM1.a -> VM2.a (ports 0 -> 2); VM2.b -> VM1.b (3 -> 1).
  const switches::PortPair pairs[] = {{0, 2}, {3, 1}};
  sut.wire(pairs);
  sut.start();
  t.bounce->start();
  t.directions.push_back({vm1_tx, vm1_rx, 2, 1, false});
  // Paper: a 1 Mpps probe-carrying stream.
  t.rate_pps = cfg.rate_pps > 0 ? cfg.rate_pps : 1e6;
}

// v2v (Fig. 3c): the SUT steers traffic between two VNF VMs. Throughput
// mode gives each VM one virtual interface (VM1 generates, VM2 monitors;
// bidirectional adds the mirror pair); probes select latency mode.
Topology v2v(const ScenarioConfig& cfg, Env& env) {
  Topology t;
  switches::SwitchBase& sut = *t.suts.emplace_back(make_sut(cfg, env));
  vnf::Vm& vm1 = add_vm(t, env, "vm1");
  vnf::Vm& vm2 = add_vm(t, env, "vm2");
  if (cfg.probe_interval > 0) {
    v2v_latency(cfg, env, t, vm1, vm2);
    return t;
  }
  ring::Port& g1 = vm1.attach(add_vm_port(cfg, sut, 0));  // port 0
  ring::Port& g2 = vm2.attach(add_vm_port(cfg, sut, 1));  // port 1
  sut.wire(port_pairs(cfg, 0, 1));
  sut.start();
  t.directions = directions(cfg, g1, g2, 1, 0);
  return t;
}

// VALE loopback: N+1 host VALE instances — all sharing the single SUT
// core, as the paper pins the SUT — plus a guest VALE instance per VM
// cross-connecting its ptnet pair (appendix A.4).
Topology loopback_vale(const ScenarioConfig& cfg, Env& env) {
  Topology t;
  const auto n = static_cast<std::size_t>(cfg.chain_length);
  hw::CpuCore& sut_core = env.testbed.take_core(0);
  for (std::size_t i = 0; i <= n; ++i) {
    t.suts.push_back(switches::make_switch(switches::SwitchType::kVale,
                                           env.sim, sut_core,
                                           "vale" + std::to_string(i)));
    if (cfg.tune_sut) cfg.tune_sut(*t.suts.back());
  }
  t.suts.front()->attach_nic(env.testbed.nic(0, 0));
  // Per-VM ptnet pairs: v{i}a on vale{i-1}, v{i}b on vale{i}.
  std::vector<ring::PtnetPort*> port_a(n);
  std::vector<ring::PtnetPort*> port_b(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string vm = "v";
    vm += std::to_string(i + 1);
    port_a[i] = &t.suts[i]->add_ptnet_port(vm + "a");
    port_b[i] = &t.suts[i + 1]->add_ptnet_port(vm + "b");
  }
  t.suts.back()->attach_nic(env.testbed.nic(0, 1));
  for (std::size_t i = 0; i < n; ++i) {
    const std::string vm = "vm" + std::to_string(i + 1);
    vnf::Vm& v = add_vm(t, env, vm);
    t.guest_vales.push_back(std::make_unique<vnf::GuestVale>(
        env.sim, v.vcpu(0), vm + ":vale", *port_a[i], *port_b[i]));
    t.vnfs.push_back(&t.guest_vales.back()->vale());
  }
  for (auto& v : t.suts) v->start();
  for (auto& gv : t.guest_vales) gv->start();
  t.directions =
      directions(cfg, env.testbed.nic(1, 0), env.testbed.nic(1, 1), 0, 0);
  return t;
}

// loopback (Fig. 3d): a complete NFV service chain. Packets enter NIC 0,
// traverse N VNF VMs steered by the SUT, and exit NIC 1. A vhost-user SUT
// steers NIC<->VM and VM<->VM, each VM running DPDK l2fwd (VmChain).
Topology loopback(const ScenarioConfig& cfg, Env& env) {
  if (cfg.sut == switches::SwitchType::kVale) return loopback_vale(cfg, env);
  Topology t;
  const int n = cfg.chain_length;
  switches::SwitchBase& sut = *t.suts.emplace_back(make_sut(cfg, env));
  sut.attach_nic(env.testbed.nic(0, 0));  // port 0
  sut.attach_nic(env.testbed.nic(0, 1));  // port 1

  t.chain = std::make_unique<vnf::VmChain>(env.sim, env.testbed, sut, n,
                                           cfg.containers);
  vnf::VmChain& chain = *t.chain;
  if (cfg.containers) {
    // The switch-side vhost crossings are also lighter against virtio-user
    // endpoints (no guest notification machinery to arm).
    auto& cost = sut.mutable_cost_model();
    cost.vhost.rx_ns *= vnf::kVhostFixedFactor;
    cost.vhost.tx_ns *= vnf::kVhostFixedFactor;
  }
  for (int i = 0; i < n; ++i) {
    if (cfg.l2fwd_drain > 0) chain.vnf(i).set_drain_timeout(cfg.l2fwd_drain);
    t.vnfs.push_back(&chain.vnf(i));
  }

  // Forward pairs: NIC0 -> A1, B_i -> A_{i+1}, B_n -> NIC1.
  std::vector<switches::PortPair> pairs;
  pairs.push_back({0, chain.hop(0).idx_a});
  for (int i = 0; i + 1 < n; ++i) {
    pairs.push_back({chain.hop(i).idx_b, chain.hop(i + 1).idx_a});
  }
  pairs.push_back({chain.hop(n - 1).idx_b, 1});
  // Reverse traffic enters VM i via B_i and leaves via A_i, hence the
  // NIC1 -> B_n, A_i -> B_{i-1}, A_1 -> NIC0 mirror wiring.
  if (cfg.bidirectional) {
    pairs.push_back({1, chain.hop(n - 1).idx_b});
    for (int i = n - 1; i > 0; --i) {
      pairs.push_back({chain.hop(i).idx_a, chain.hop(i - 1).idx_b});
    }
    pairs.push_back({chain.hop(0).idx_a, 0});
  }
  sut.wire(pairs);

  // l2fwd dst-MAC rewrites so each hop addresses the next SUT egress
  // (required by t4p4s, harmless for the others).
  for (int i = 0; i < n; ++i) {
    const std::size_t fwd_next =
        (i + 1 < n) ? chain.hop(i + 1).idx_a : std::size_t{1};
    chain.vnf(i).set_dst_mac_rewrite(1, switches::egress_mac(fwd_next));
    const std::size_t rev_next =
        (i > 0) ? chain.hop(i - 1).idx_b : std::size_t{0};
    chain.vnf(i).set_dst_mac_rewrite(0, switches::egress_mac(rev_next));
  }

  sut.start();
  chain.start();
  t.directions = directions(cfg, env.testbed.nic(1, 0), env.testbed.nic(1, 1),
                            chain.hop(0).idx_a, chain.hop(n - 1).idx_b);
  return t;
}

}  // namespace

Topology build_topology(const ScenarioConfig& cfg, Env& env) {
  switch (cfg.kind) {
    case Kind::kP2p: return p2p(cfg, env);
    case Kind::kP2v: return p2v(cfg, env);
    case Kind::kV2v: return v2v(cfg, env);
    case Kind::kLoopback: return loopback(cfg, env);
  }
  throw std::invalid_argument("unknown scenario kind");
}

}  // namespace nfvsb::scenario::detail
