// OvS-DPDK — the userspace datapath of Open vSwitch with DPDK poll-mode I/O.
//
// Three-tier lookup, as in dpif-netdev (Sec. 3.8: "its data path is highly
// optimized thanks to the presence of internal flow caches"):
//   1. EMC (exact match cache)             — cheapest
//   2. megaflow cache (tuple-space search) — cost per subtable probed
//   3. OpenFlow table "upcall"             — expensive; installs 1 + 2
//
// The paper's single-flow synthetic traffic hits the EMC every time after
// the first packet — and is nonetheless slower than BESS/VPP/FastClick
// because the match/action machinery (key extraction, hashing) runs per
// packet (Sec. 5.2: "OvS-DPDK achieves 8.05 Gbps due to the overhead
// imposed by its match/action pipeline").
#pragma once

#include <span>
#include <vector>

#include "core/simulator.h"
#include "switches/ovs/emc.h"
#include "switches/ovs/megaflow.h"
#include "switches/ovs/openflow_table.h"
#include "switches/switch_base.h"

namespace nfvsb::switches::ovs {

class OvsSwitch final : public SwitchBase {
 public:
  OvsSwitch(core::Simulator& sim, hw::CpuCore& core, std::string name,
            CostModel cost = default_cost_model());

  [[nodiscard]] const char* kind() const override { return "OvS-DPDK"; }

  static CostModel default_cost_model();

  /// Extra datapath costs specific to the lookup tiers.
  struct LookupCosts {
    double emc_hit_ns{0};           ///< included in pipeline_ns baseline
    double megaflow_subtable_ns{18};///< per subtable probed on EMC miss
    double upcall_ns{1200};         ///< slow-path consultation + install
  };

  [[nodiscard]] OpenFlowTable& openflow() { return openflow_; }

  /// Install `priority=100,in_port=<in>,actions=output:<out>` per pair, as
  /// the paper's `ovs-ofctl add-flow` does (1-based OpenFlow ports).
  void wire(std::span<const PortPair> pairs) override;

  /// Packets forwarded under each rule, datapath-cache hits included (what
  /// `ovs-ofctl dump-flows` shows as n_packets).
  [[nodiscard]] std::uint64_t rule_packets(std::uint32_t rule_id) const;

  [[nodiscard]] const Emc& emc() const { return emc_; }
  [[nodiscard]] const MegaflowCache& megaflow() const { return megaflow_; }
  [[nodiscard]] std::uint64_t upcalls() const { return upcalls_; }
  [[nodiscard]] LookupCosts& lookup_costs() { return lookup_costs_; }

 protected:
  double process_batch(ring::Port& in, std::vector<pkt::PacketHandle>& batch,
                       std::vector<Tx>& out) override;

 private:
  Emc emc_;
  MegaflowCache megaflow_;
  OpenFlowTable openflow_;
  /// n_packets by rule id (ids count up from 1), grown when a rule first
  /// matches.
  std::vector<std::uint64_t> rule_packets_;
  LookupCosts lookup_costs_;
  std::uint64_t upcalls_{0};
};

}  // namespace nfvsb::switches::ovs
