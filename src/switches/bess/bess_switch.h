// BESS (Berkeley Extensible Software Switch / SoftNIC).
//
// Modelled behaviours:
//  * module pipeline with very thin per-packet work (best p2p thrower);
//  * run-to-completion scheduling by the bessd daemon;
//  * the QEMU incompatibility that caps BESS service chains at 3 VNFs
//    (paper footnote 5) — enforced by the scenario builder, which refuses
//    to build longer BESS chains exactly as the testbed did.
#pragma once

#include <span>

#include "core/simulator.h"
#include "switches/bess/module.h"
#include "switches/switch_base.h"

namespace nfvsb::switches::bess {

class BessSwitch final : public SwitchBase {
 public:
  BessSwitch(core::Simulator& sim, hw::CpuCore& core, std::string name,
             CostModel cost = default_cost_model());

  static CostModel default_cost_model();

  /// Max VMs BESS can attach before hitting the QEMU issue (footnote 5).
  static constexpr int kMaxVms = 3;

  [[nodiscard]] Pipeline& pipeline() { return pipeline_; }

  /// QueueInc(port=a) -> QueueOut(port=b), the paper's pipeline.
  void wire(std::size_t in_port, std::size_t out_port);
  void wire(std::span<const PortPair> pairs) override;

 protected:
  double process_batch(ring::Port& in, std::vector<pkt::PacketHandle>& batch,
                       std::vector<Tx>& out) override;

 private:
  Pipeline pipeline_;
  /// Reused by every traversal (only its emitted buffer carries over).
  TaskContext ctx_;
};

}  // namespace nfvsb::switches::bess
