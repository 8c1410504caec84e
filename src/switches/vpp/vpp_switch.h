// FD.io VPP — self-contained vector packet processor / full router.
//
// Modelled behaviours (Sec. 3 + Sec. 5):
//  * vector processing: whole-burst traversal of a node graph, with fixed
//    per-node costs amortized over the vector;
//  * a number of validation steps BESS skips ("VPP performs a number of
//    verifications", Sec. 5.2) — ethernet-input runs before l2-patch;
//  * a penalty receiving from vhost-user ports — the paper measured the
//    reversed p2v direction at 5.59 vs 6.9 Gbps (Sec. 5.2), so vhost rx
//    costs more than vhost tx in the calibrated model.
#pragma once

#include <span>

#include "core/simulator.h"
#include "switches/switch_base.h"
#include "switches/vpp/graph.h"
#include "switches/vpp/nodes.h"

namespace nfvsb::switches::vpp {

class VppSwitch final : public SwitchBase {
 public:
  VppSwitch(core::Simulator& sim, hw::CpuCore& core, std::string name,
            CostModel cost = default_cost_model());

  [[nodiscard]] const char* kind() const override { return "VPP"; }

  static CostModel default_cost_model();

  /// Cross-connect rx -> tx (the CLI's `test l2patch rx portA tx portB`).
  void l2patch(std::size_t rx_port, std::size_t tx_port);
  /// One l2patch per pair.
  void wire(std::span<const PortPair> pairs) override;

  [[nodiscard]] Graph& graph() { return graph_; }
  [[nodiscard]] L2PatchNode& patch_node() { return *patch_; }

 protected:
  double process_batch(ring::Port& in, std::vector<pkt::PacketHandle>& batch,
                       std::vector<Tx>& out) override;

 private:
  Graph graph_;
  EthernetInputNode* eth_input_;
  L2PatchNode* patch_;
  /// The graph's vector, reused every round (VPP's frames are preallocated
  /// too).
  Vector frame_;
};

}  // namespace nfvsb::switches::vpp
