// t4p4s — platform-independent P4 software switch (Laki et al.).
//
// Modelled behaviours:
//  * explicit parse -> match/action -> deparse stage pipeline with HAL
//    overhead per stage;
//  * the paper's l2fwd P4 program: exact match on destination MAC ->
//    forward to port; generators must address packets accordingly
//    (appendix A.1);
//  * Table 2 tuning: "Remove source MAC learning phase" — the pipeline
//    has no smac stage, as tuned;
//  * large internal batch assembly + high service variance, producing the
//    worst latency profile of the seven (Table 3: 32/31/174 us in p2p,
//    multi-ms tails under 0.99 R+ in loopback).
#pragma once

#include <span>

#include "core/simulator.h"
#include "switches/switch_base.h"
#include "switches/t4p4s/p4_pipeline.h"
#include "switches/t4p4s/tables.h"

namespace nfvsb::switches::t4p4s {

class T4p4sSwitch final : public SwitchBase {
 public:
  T4p4sSwitch(core::Simulator& sim, hw::CpuCore& core, std::string name,
              CostModel cost = default_cost_model());

  static CostModel default_cost_model();

  [[nodiscard]] ExactMacTable& l2_table() { return l2_table_; }

  /// Add `egress_mac(out) => forward(out)` to the l2fwd table per pair.
  void wire(std::span<const PortPair> pairs) override;
  [[nodiscard]] StageCosts& stage_costs() { return stage_costs_; }

  [[nodiscard]] std::uint64_t table_misses() const { return table_misses_; }

  /// Runtime controller command, t4p4s-controller style:
  ///   table_add l2fwd forward <dst-mac> => <port>
  ///   table_add l2fwd _drop <dst-mac>
  ///   table_clear l2fwd
  /// Throws std::invalid_argument on malformed commands.
  void controller(const std::string& command);

 protected:
  double process_batch(ring::Port& in, std::vector<pkt::PacketHandle>& batch,
                       std::vector<Tx>& out) override;

 private:
  ExactMacTable l2_table_;
  StageCosts stage_costs_;
  std::uint64_t table_misses_{0};
};

}  // namespace nfvsb::switches::t4p4s
