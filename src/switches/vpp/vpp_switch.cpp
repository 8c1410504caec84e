#include "switches/vpp/vpp_switch.h"

#include <memory>
#include <utility>

#include "core/simulator.h"
#include "switches/switch_base.h"

namespace nfvsb::switches::vpp {

// Calibration (EXPERIMENTS.md): p2p 64B bidirectional ~12 Gbps aggregate =
// 17.9 Mpps -> ~56 ns/pkt; unidirectional then saturates the 10 G link.
// Graph nodes charge ~15.5 ns/pkt at full vectors; the physical rx/tx and
// dpdk-input bookkeeping make up the rest. vhost asymmetry: rx 78 / tx 52
// fixed ns reproduces the reversed-path measurement.
CostModel VppSwitch::default_cost_model() {
  CostModel c;
  c.batch_fixed_ns = 220;  // dpdk-input + graph dispatch
  c.pipeline_ns = 26.5;    // per-packet outside the explicit graph nodes
  c.physical = PortCosts{8, 7, 0.0, 0.0};
  c.vhost = PortCosts{66, 43, 0.05, 0.05};
  c.vhost_extra_desc_ns = 100;
  c.ptnet = PortCosts{20, 20, 0.0, 0.0};
  c.internal = PortCosts{4, 4, 0.0, 0.0};
  c.burst = 64;  // typical steady-state VPP vector size
  c.jitter_cv = 0.20;
  c.stall_prob = 1e-4;
  c.stall_mean_us = 25;
  return c;
}

VppSwitch::VppSwitch(core::Simulator& sim, hw::CpuCore& core,
                     std::string name, CostModel cost)
    : SwitchBase(sim, core, std::move(name), cost) {
  auto eth = std::make_unique<EthernetInputNode>();
  eth_input_ = eth.get();
  graph_.add(std::move(eth));
  auto patch = std::make_unique<L2PatchNode>();
  patch_ = patch.get();
  graph_.add(std::move(patch));
}

void VppSwitch::l2patch(std::size_t rx_port, std::size_t tx_port) {
  patch_->patch(rx_port, tx_port);
}

void VppSwitch::wire(std::span<const PortPair> pairs) {
  for (const PortPair& p : pairs) l2patch(p.in, p.out);
}

double VppSwitch::process_batch(ring::Port& in,
                                std::vector<pkt::PacketHandle>& batch,
                                std::vector<Tx>& out) {
  const std::size_t in_idx = index_of(in);
  for (auto& p : batch) {
    frame_.push_back(VectorEntry{std::move(p), in_idx, kNoTxPort, false});
  }
  const double cost = graph_.run(frame_);
  for (auto& e : frame_) {
    if (e.drop || e.tx_port >= num_ports()) continue;
    out.push_back(Tx{&port(e.tx_port), std::move(e.pkt)});
  }
  frame_.clear();  // frees the error-drops
  return cost;
}

}  // namespace nfvsb::switches::vpp
