// loopback: a complete NFV service chain (Fig. 3d). Packets enter NIC 0,
// traverse N VNF VMs steered by the SUT, and exit NIC 1.
//
//  * vhost-user switches: one SUT instance steering NIC<->VM and VM<->VM,
//    each VM running DPDK l2fwd (VmChain);
//  * VALE: N+1 host VALE instances — all sharing the single SUT core, as
//    the paper pins the SUT — plus a guest VALE instance per VM
//    cross-connecting its ptnet pair (appendix A.4);
//  * BESS: chains longer than 3 VNFs cannot be built (QEMU compatibility,
//    footnote 5); validate() reports them as skipped, like the gaps in
//    Table 3.
#include <memory>
#include <string>

#include "scenario/detail.h"
#include "scenario/scenario.h"
#include "switches/vale/vale_switch.h"
#include "vnf/chain.h"
#include "vnf/container.h"
#include "vnf/vale_guest.h"

namespace nfvsb::scenario {
namespace {

using detail::Env;
using detail::WirePair;

struct Generators {
  std::unique_ptr<traffic::MoonGen> fwd;
  std::unique_ptr<traffic::MoonGen> rev;
};

Generators start_generators(const ScenarioConfig& cfg, Env& env,
                            std::size_t fwd_first_out,
                            std::size_t rev_first_out,
                            core::SimTime t_stop) {
  Generators g;
  traffic::MoonGen::Config fwd_cfg;
  fwd_cfg.frame = detail::make_frame(cfg, false, fwd_first_out);
  fwd_cfg.rate_pps = cfg.rate_pps;
  fwd_cfg.probe_interval = cfg.probe_interval;
  fwd_cfg.meter_open_at = cfg.warmup;
  fwd_cfg.origin = 1;
  g.fwd = std::make_unique<traffic::MoonGen>(env.sim, env.pool, fwd_cfg);
  g.fwd->attach_tx_nic(env.testbed.nic(1, 0));
  g.fwd->attach_rx_nic(env.testbed.nic(1, 1));
  g.fwd->start_tx(0, t_stop);
  if (cfg.bidirectional) {
    traffic::MoonGen::Config rev_cfg;
    rev_cfg.frame = detail::make_frame(cfg, true, rev_first_out);
    rev_cfg.rate_pps = cfg.rate_pps;
    rev_cfg.meter_open_at = cfg.warmup;
    rev_cfg.origin = 2;
    g.rev = std::make_unique<traffic::MoonGen>(env.sim, env.pool, rev_cfg);
    g.rev->attach_tx_nic(env.testbed.nic(1, 1));
    g.rev->attach_rx_nic(env.testbed.nic(1, 0));
    g.rev->start_tx(0, t_stop);
  }
  return g;
}

void finish(const ScenarioConfig& cfg, Env& env, Generators& g,
            core::SimTime t_stop, ScenarioResult& r) {
  env.sim.run_until(t_stop);
  g.fwd->rx_meter().close(t_stop);
  if (g.rev) g.rev->rx_meter().close(t_stop);
  env.sim.run();
  r.fwd = detail::direction_result(g.fwd->rx_meter());
  if (g.rev) r.rev = detail::direction_result(g.rev->rx_meter());
  detail::fill_latency(r, g.fwd->latency());
  r.nic_imissed =
      env.testbed.nic(0, 0).imissed() + env.testbed.nic(0, 1).imissed();
  // Whole-run conservation: chain egress lands at the node-1 monitor NICs.
  r.offered_packets = g.fwd->tx_sent();
  r.gen_tx_failures = g.fwd->tx_failed();
  r.delivered_packets = env.testbed.nic(1, 1).rx_frames();
  if (g.rev) {
    r.offered_packets += g.rev->tx_sent();
    r.gen_tx_failures += g.rev->tx_failed();
    r.delivered_packets += env.testbed.nic(1, 0).rx_frames();
  }
  (void)cfg;
}

ScenarioResult run_loopback_vale(const ScenarioConfig& cfg) {
  using namespace detail;
  Env env(cfg);
  const int n = cfg.chain_length;
  hw::CpuCore& sut_core = env.testbed.take_core(0);

  // N+1 host VALE instances sharing the SUT core.
  std::vector<std::unique_ptr<switches::vale::ValeSwitch>> vales;
  for (int i = 0; i <= n; ++i) {
    vales.push_back(std::make_unique<switches::vale::ValeSwitch>(
        env.sim, sut_core, "vale" + std::to_string(i)));
    if (cfg.tune_sut) cfg.tune_sut(*vales.back());
  }
  vales.front()->attach_nic(env.testbed.nic(0, 0));
  // Per-VM ptnet pairs: v{i}a on vale{i-1}, v{i}b on vale{i}.
  std::vector<ring::PtnetPort*> port_a(static_cast<std::size_t>(n));
  std::vector<ring::PtnetPort*> port_b(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    port_a[static_cast<std::size_t>(i)] =
        &vales[static_cast<std::size_t>(i)]->add_ptnet_port(
            "v" + std::to_string(i + 1) + "a");
    port_b[static_cast<std::size_t>(i)] =
        &vales[static_cast<std::size_t>(i + 1)]->add_ptnet_port(
            "v" + std::to_string(i + 1) + "b");
  }
  vales.back()->attach_nic(env.testbed.nic(0, 1));

  // VMs, each with a guest VALE VNF cross-connecting its ptnet pair.
  std::vector<std::unique_ptr<vnf::Vm>> vms;
  std::vector<std::unique_ptr<vnf::GuestVale>> guests;
  for (int i = 0; i < n; ++i) {
    std::vector<hw::CpuCore*> vcpus;
    for (int c = 0; c < 4; ++c) vcpus.push_back(&env.testbed.take_core(0));
    vms.push_back(std::make_unique<vnf::Vm>("vm" + std::to_string(i + 1),
                                            std::move(vcpus)));
    guests.push_back(std::make_unique<vnf::GuestVale>(
        env.sim, vms.back()->vcpu(0), "vm" + std::to_string(i + 1) + ":vale",
        *port_a[static_cast<std::size_t>(i)],
        *port_b[static_cast<std::size_t>(i)]));
  }

  for (auto& v : vales) v->start();
  for (auto& gv : guests) gv->start();

  const core::SimTime t_stop = env.t_stop(cfg);
  Generators g = start_generators(cfg, env, 0, 0, t_stop);
  ScenarioResult r;
  finish(cfg, env, g, t_stop, r);
  for (auto& v : vales) {
    r.sut_wasted_work += v->stats().tx_drops;
    r.sut_discards += v->stats().discards;
  }
  for (auto& gv : guests) {
    r.vnf_wasted_work += gv->vale().stats().tx_drops;
    r.vnf_discards += gv->vale().stats().discards;
  }
  env.collect(r);
  return r;
}

}  // namespace

ScenarioResult run_loopback(const ScenarioConfig& cfg) {
  using namespace detail;
  if (cfg.sut == switches::SwitchType::kVale) return run_loopback_vale(cfg);

  Env env(cfg);
  const int n = cfg.chain_length;
  auto sut = switches::make_switch(cfg.sut, env.sim, env.testbed.take_core(0),
                                   "sut");
  if (cfg.tune_sut) cfg.tune_sut(*sut);
  sut->attach_nic(env.testbed.nic(0, 0));  // port 0
  sut->attach_nic(env.testbed.nic(0, 1));  // port 1

  vnf::VmChain chain(env.sim, env.testbed, *sut, n, cfg.containers);
  if (cfg.containers) {
    // The switch-side vhost crossings are also lighter against virtio-user
    // endpoints (no guest notification machinery to arm).
    auto& cost = sut->mutable_cost_model();
    cost.vhost.rx_ns *= vnf::Container::kVhostFixedFactor;
    cost.vhost.tx_ns *= vnf::Container::kVhostFixedFactor;
  }
  if (cfg.l2fwd_drain > 0) {
    for (int i = 0; i < n; ++i) chain.vnf(i).set_drain_timeout(cfg.l2fwd_drain);
  }

  // Forward pairs: NIC0 -> A1, B_i -> A_{i+1}, B_n -> NIC1.
  std::vector<WirePair> pairs;
  pairs.push_back({0, chain.hop(0).idx_a});
  for (int i = 0; i + 1 < n; ++i) {
    pairs.push_back({chain.hop(i).idx_b, chain.hop(i + 1).idx_a});
  }
  pairs.push_back({chain.hop(n - 1).idx_b, 1});
  if (cfg.bidirectional) {
    pairs.push_back({1, chain.hop(n - 1).idx_b});
    for (int i = n - 1; i > 0; --i) {
      pairs.push_back({chain.hop(i).idx_a, chain.hop(i - 1).idx_b});
    }
    pairs.push_back({chain.hop(0).idx_a, 0});
  }

  // (Reverse traffic enters VM i via B_i and leaves via A_i, hence the
  // NIC1 -> B_n, A_i -> B_{i-1}, A_1 -> NIC0 mirror wiring.)
  wire_sut(*sut, cfg.sut, pairs);

  // l2fwd dst-MAC rewrites so each hop addresses the next SUT egress
  // (required by t4p4s, harmless for the others).
  for (int i = 0; i < n; ++i) {
    const std::size_t fwd_next =
        (i + 1 < n) ? chain.hop(i + 1).idx_a : std::size_t{1};
    chain.vnf(i).set_dst_mac_rewrite(1, dst_mac_for_port(fwd_next));
    const std::size_t rev_next =
        (i > 0) ? chain.hop(i - 1).idx_b : std::size_t{0};
    chain.vnf(i).set_dst_mac_rewrite(0, dst_mac_for_port(rev_next));
  }

  sut->start();
  chain.start();

  const core::SimTime t_stop = env.t_stop(cfg);
  Generators g = start_generators(cfg, env, chain.hop(0).idx_a,
                                  chain.hop(n - 1).idx_b, t_stop);
  ScenarioResult r;
  finish(cfg, env, g, t_stop, r);
  r.sut_wasted_work = sut->stats().tx_drops;
  r.sut_discards = sut->stats().discards;
  for (int i = 0; i < n; ++i) {
    r.vnf_wasted_work += chain.vnf(i).stats().tx_drops;
    r.vnf_discards += chain.vnf(i).stats().discards;
  }
  env.collect(r);
  return r;
}

}  // namespace nfvsb::scenario
