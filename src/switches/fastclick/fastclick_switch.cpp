#include "switches/fastclick/fastclick_switch.h"

#include <string>
#include <utility>

#include "core/simulator.h"
#include "switches/switch_base.h"

namespace nfvsb::switches::fastclick {

// Calibration (EXPERIMENTS.md): p2p 64B bidirectional ~13 Gbps aggregate =
// 19.4 Mpps -> ~51.5 ns/pkt; unidirectional saturates 10 G. The explicit
// element charges (From 4.0 + EtherMirror 6.0 + To 3.5 per packet at full
// batch) are part of that budget; pipeline_ns carries the rest.
CostModel FastClickSwitch::default_cost_model() {
  CostModel c;
  c.batch_fixed_ns = 180;
  c.pipeline_ns = 15.5;
  c.physical = PortCosts{8, 7, 0.0, 0.0};
  c.vhost = PortCosts{52, 48, 0.05, 0.05};
  c.vhost_extra_desc_ns = 55;
  c.ptnet = PortCosts{20, 20, 0.0, 0.0};
  c.netmap_host = c.ptnet;
  c.internal = PortCosts{4, 4, 0.0, 0.0};
  c.burst = 32;
  // FastClick's own batching: at low input rate it waits briefly to build
  // batches, which compounds per hop in long service chains (Table 3's
  // 0.10 R+ blow-up with 4 VNFs). Modelled as a small assembly timeout.
  c.batch_timeout = core::from_us(2);
  c.batch_timeout_vhost = core::from_us(150);
  c.jitter_cv = 0.35;
  c.stall_prob = 5e-5;
  c.stall_mean_us = 20;
  return c;
}

FastClickSwitch::FastClickSwitch(core::Simulator& sim, hw::CpuCore& core,
                                 std::string name, CostModel cost)
    : SwitchBase(sim, core, std::move(name), cost) {}

void FastClickSwitch::configure(const std::string& click_config) {
  ConfigParser parser(router_);
  parser.parse(click_config);
}

void FastClickSwitch::wire(std::span<const PortPair> pairs) {
  std::string config;
  for (const PortPair& p : pairs) {
    config += "FromDPDKDevice(" + std::to_string(p.in) +
              ") -> EtherMirror() -> ToDPDKDevice(" + std::to_string(p.out) +
              ");\n";
  }
  configure(config);
}

double FastClickSwitch::process_batch(ring::Port& in,
                                      std::vector<pkt::PacketHandle>& batch,
                                      std::vector<Tx>& out) {
  const std::size_t in_idx = index_of(in);
  Element* entry = router_.input_for(in_idx);
  if (entry == nullptr) {
    // No FromDPDKDevice bound to this port: Click drops at input.
    return 0.0;
  }
  ctx_.cost_ns = 0;
  ctx_.discarded = 0;
  entry->push(ctx_, batch);
  for (auto& [dev, p] : ctx_.emitted) {
    if (dev < num_ports()) {
      out.push_back(Tx{&port(dev), std::move(p)});
    }
  }
  ctx_.emitted.clear();  // frees emits to unknown devices
  return ctx_.cost_ns;
}

}  // namespace nfvsb::switches::fastclick
