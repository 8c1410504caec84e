#include "switches/bess/bess_switch.h"

#include <memory>
#include <string>
#include <utility>

#include "core/simulator.h"
#include "switches/bess/modules.h"
#include "switches/switch_base.h"

namespace nfvsb::switches::bess {

// Calibration (EXPERIMENTS.md): p2p 64B bidirectional 16 Gbps aggregate =
// 23.8 Mpps -> ~42 ns/pkt, the leanest pipeline of the seven. p2v bidir
// 11.38 Gbps = 16.9 Mpps -> ~59 ns -> vhost adds ~17 ns + copies.
CostModel BessSwitch::default_cost_model() {
  CostModel c;
  c.batch_fixed_ns = 150;
  c.pipeline_ns = 17.0;
  c.physical = PortCosts{7, 6, 0.0, 0.0};
  c.vhost = PortCosts{32, 28, 0.042, 0.042};
  c.vhost_extra_desc_ns = 50;
  c.ptnet = PortCosts{20, 20, 0.0, 0.0};
  c.internal = PortCosts{3, 3, 0.0, 0.0};
  c.burst = 32;
  c.jitter_cv = 0.45;  // tightest latency profile of the seven (Table 3)
  c.stall_prob = 0.0;
  return c;
}

BessSwitch::BessSwitch(core::Simulator& sim, hw::CpuCore& core,
                       std::string name, CostModel cost)
    : SwitchBase(sim, core, std::move(name), cost) {}

void BessSwitch::wire(std::size_t in_port, std::size_t out_port) {
  auto inc = std::make_unique<QueueInc>("in" + std::to_string(in_port));
  auto out = std::make_unique<QueueOut>(
      "out" + std::to_string(out_port), out_port);
  auto& inc_ref = *inc;
  auto& out_ref = *out;
  pipeline_.add(std::move(inc));
  pipeline_.add(std::move(out));
  inc_ref.connect(out_ref);
  pipeline_.register_input(in_port, inc_ref);
}

void BessSwitch::wire(std::span<const PortPair> pairs) {
  for (const PortPair& p : pairs) wire(p.in, p.out);
}

double BessSwitch::process_batch(ring::Port& in,
                                 std::vector<pkt::PacketHandle>& batch,
                                 std::vector<Tx>& out) {
  const std::size_t in_idx = index_of(in);
  Module* entry = pipeline_.input_for(in_idx);
  if (entry == nullptr) return 0.0;  // unwired port: drop
  ctx_.cost_ns = 0;
  entry->process(ctx_, batch);
  for (auto& [dst, p] : ctx_.emitted) {
    if (dst < num_ports()) {
      out.push_back(Tx{&port(dst), std::move(p)});
    }
  }
  ctx_.emitted.clear();  // frees emits to unknown ports
  return ctx_.cost_ns;
}

}  // namespace nfvsb::switches::bess
