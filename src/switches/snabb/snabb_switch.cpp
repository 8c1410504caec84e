#include "switches/snabb/snabb_switch.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/simulator.h"
#include "ring/spsc_ring.h"
#include "switches/switch_base.h"

namespace nfvsb::switches::snabb {

// Calibration (EXPERIMENTS.md): p2p 64B 8.9 Gbps = 13.2 Mpps -> ~75.5
// ns/pkt spread over TWO breaths (nic app + nic app with a staging link in
// between). App charges (13 ns/pkt each) + link crossings + port costs add
// up to that budget. vhost app costs reproduce p2v 5.97 / v2v 6.42 Gbps.
CostModel SnabbSwitch::default_cost_model() {
  CostModel c;
  c.batch_fixed_ns = 300;  // breathe() bookkeeping per round
  c.pipeline_ns = 10.0;    // engine per-packet overhead outside apps
  c.physical = PortCosts{9, 8, 0.0, 0.0};
  c.vhost = PortCosts{12, 16, 0.06, 0.06};
  c.vhost_extra_desc_ns = 95;
  c.ptnet = PortCosts{20, 20, 0.0, 0.0};
  c.netmap_host = c.ptnet;
  c.internal = PortCosts{5.5, 5.5, 0.0, 0.0};  // link staging push/pull
  c.burst = 128;  // engine pulls up to 128 per breath
  // The default (non-busywait) engine sleeps when idle; vhost work wakes
  // it with scheduler latency. Under saturation breaths are back-to-back
  // and this never appears; at low rate it dominates the v2v RTT (Table 4:
  // Snabb 67 us vs ~40 us for the DPDK switches).
  c.wakeup_latency_virtual = core::from_us(8);
  c.jitter_cv = 0.30;
  // Stalls come from LuaJitModel instead of the generic process.
  c.stall_prob = 0.0;
  return c;
}

SnabbSwitch::SnabbSwitch(core::Simulator& sim, hw::CpuCore& core,
                         std::string name, CostModel cost)
    : SwitchBase(sim, core, std::move(name), cost),
      jit_rng_(sim.rng().split()) {}

void SnabbSwitch::commit() {
  bool has_nic = false;
  bool has_vhost = false;
  for (const LinkSpec& l : engine_.links()) {
    for (const auto* name : {&l.from_app, &l.to_app}) {
      App* a = engine_.find(*name);
      if (dynamic_cast<Intel82599App*>(a) != nullptr) has_nic = true;
      if (dynamic_cast<VhostUserApp*>(a) != nullptr) has_vhost = true;
    }
  }
  if (has_nic && has_vhost) hetero_penalty_ns_ = 11.3;
  // LuaJIT trace-cache budget: beyond ~8 apps (3 chained VNFs) the hot
  // path no longer fits and side traces abort to the interpreter. This is
  // the overload cliff the paper reports for 4+ VNF chains (Sec. 5.2).
  if (engine_.app_count() > 8) jit_.set_steady_multiplier(2.6);

  // Internal staging port per link.
  std::vector<std::size_t> link_port_idx(engine_.links().size());
  for (std::size_t i = 0; i < engine_.links().size(); ++i) {
    const LinkSpec& l = engine_.links()[i];
    auto ring = std::make_unique<ring::SpscRing>(
        name() + ":link:" + l.from_app + "->" + l.to_app, 1024);
    auto& ring_ref = *ring;
    link_rings_.push_back(std::move(ring));
    auto port = std::make_unique<ring::RingPort>(
        l.from_app + "." + l.from_end, ring::PortKind::kInternal, ring_ref,
        ring_ref);
    link_port_idx[i] = num_ports();
    add_port(std::move(port));
  }

  const auto external_port_of = [&](const App& a) -> std::size_t {
    if (const auto* nic = dynamic_cast<const Intel82599App*>(&a)) {
      return nic->port_index();
    }
    if (const auto* vh = dynamic_cast<const VhostUserApp*>(&a)) {
      return vh->port_index();
    }
    return num_ports();  // sentinel: no external binding
  };

  routes_.assign(num_ports(), Route{});

  const auto dest_after = [&](App& a) -> std::size_t {
    // Where a batch goes after app `a` processed it on the egress half:
    // its external port if bound, else its outgoing link.
    const std::size_t ext = external_port_of(a);
    if (ext < num_ports()) return ext;
    if (const LinkSpec* out = engine_.out_link(a.name())) {
      for (std::size_t i = 0; i < engine_.links().size(); ++i) {
        if (&engine_.links()[i] == out) return link_port_idx[i];
      }
    }
    throw std::logic_error("snabb: app has no egress: " + a.name());
  };

  // Ingress half: external port -> app -> its outgoing link.
  for (std::size_t li = 0; li < engine_.links().size(); ++li) {
    const LinkSpec& l = engine_.links()[li];
    App* from = engine_.find(l.from_app);
    const std::size_t ext = external_port_of(*from);
    if (ext < num_ports()) {
      routes_[ext] = Route{from, link_port_idx[li], true};
    }
    // Link -> consuming app -> that app's egress.
    App* to = engine_.find(l.to_app);
    routes_[link_port_idx[li]] = Route{to, dest_after(*to), true};
  }
}

void SnabbSwitch::wire(std::span<const PortPair> pairs) {
  const auto app_name = [](std::size_t p) { return "app" + std::to_string(p); };
  const auto ensure_app = [&](std::size_t p) {
    if (engine_.find(app_name(p)) != nullptr) return;
    if (port(p).kind() == ring::PortKind::kPhysical) {
      engine_.app(std::make_unique<Intel82599App>(app_name(p), p));
    } else {
      engine_.app(std::make_unique<VhostUserApp>(app_name(p), p));
    }
  };
  for (const PortPair& p : pairs) {
    ensure_app(p.in);
    ensure_app(p.out);
    engine_.link(app_name(p.in) + ".tx -> " + app_name(p.out) + ".rx");
  }
  commit();
}

double SnabbSwitch::process_batch(ring::Port& in,
                                  std::vector<pkt::PacketHandle>& batch,
                                  std::vector<Tx>& out) {
  const std::size_t idx = index_of(in);
  if (idx >= routes_.size() || !routes_[idx].valid) {
    return 0.0;  // unrouted port: packets die with the batch
  }
  Route& r = routes_[idx];
  const double mult = jit_.step_multiplier();
  double cost = (r.app->charge_ns(batch.size()) +
                 hetero_penalty_ns_ * static_cast<double>(batch.size())) *
                mult;
  cost += r.app->process(batch);
  cost += jit_.sample_stall_ns(jit_rng_);
  for (auto& p : batch) {
    out.push_back(Tx{&port(r.dest_port), std::move(p)});
  }
  return cost;
}

}  // namespace nfvsb::switches::snabb
