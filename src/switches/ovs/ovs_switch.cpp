#include "switches/ovs/ovs_switch.h"

#include <string>
#include <utility>

#include "core/simulator.h"
#include "switches/ovs/ovs_ctl.h"
#include "switches/switch_base.h"

namespace nfvsb::switches::ovs {

// Calibration (EXPERIMENTS.md): p2p 64B unidirectional 8.05 Gbps =
// 11.98 Mpps -> ~83.5 ns/pkt end to end. Physical rx/tx are DPDK PMD costs
// shared with the other DPDK switches; the remainder (miniflow extraction +
// EMC probe + action execution) sits in pipeline_ns. vhost costs reproduce
// the p2v/v2v degradation (Fig. 4b/4c) and include the copy per byte.
CostModel OvsSwitch::default_cost_model() {
  CostModel c;
  c.batch_fixed_ns = 250;
  c.pipeline_ns = 49;  // extract + hash + EMC hit + action
  c.physical = PortCosts{14, 12, 0.0, 0.0};
  c.vhost = PortCosts{34, 36, 0.055, 0.055};
  c.vhost_extra_desc_ns = 95;
  c.ptnet = PortCosts{20, 20, 0.0, 0.0};  // unused by OvS
  c.netmap_host = c.ptnet;
  c.internal = PortCosts{4, 4, 0.0, 0.0};
  c.burst = 32;
  c.jitter_cv = 0.12;  // match/action pipeline is cache-sensitive
  c.stall_prob = 1e-4;  // revalidator / stats sweeps
  c.stall_mean_us = 35;
  c.vhost_stall_prob = 3e-4;
  c.vhost_stall_mean_us = 500;
  return c;
}

OvsSwitch::OvsSwitch(core::Simulator& sim, hw::CpuCore& core,
                     std::string name, CostModel cost)
    : SwitchBase(sim, core, std::move(name), cost) {}

std::uint64_t OvsSwitch::rule_packets(std::uint32_t rule_id) const {
  return rule_id < rule_packets_.size() ? rule_packets_[rule_id] : 0;
}

void OvsSwitch::wire(std::span<const PortPair> pairs) {
  for (const PortPair& p : pairs) {
    openflow_.add_rule(OvsOfctl::parse_flow(
        "priority=100,in_port=" + std::to_string(p.in + 1) +
        ",actions=output:" + std::to_string(p.out + 1)));
  }
}

double OvsSwitch::process_batch(ring::Port& in,
                                std::vector<pkt::PacketHandle>& batch,
                                std::vector<Tx>& out) {
  const std::size_t in_idx = index_of(in);
  double extra_ns = 0.0;
  for (auto& p : batch) {
    const FlowKey key =
        FlowKey::from_frame(static_cast<std::uint32_t>(in_idx), p->bytes());

    Action action = Action::drop();
    if (const auto emc_hit = emc_.lookup(key)) {
      action = *emc_hit;  // baseline cost, included in pipeline_ns
    } else if (auto mf = megaflow_.lookup(key)) {
      extra_ns += lookup_costs_.megaflow_subtable_ns *
                  static_cast<double>(mf->subtables_probed);
      action = mf->action;
      emc_.insert(key, action);
    } else if (const auto cls = openflow_.classify(key)) {
      ++upcalls_;
      extra_ns += lookup_costs_.upcall_ns;
      action = cls->rule.action;
      // Install under the unwildcarded mask so the megaflow can never
      // shadow a higher-priority rule.
      megaflow_.insert(cls->megaflow_mask, key, action);
      emc_.insert(key, action);
    } else {
      // No rule: default drop (the paper's setups always install rules).
      continue;
    }

    if (action.rule_id != 0) {
      if (action.rule_id >= rule_packets_.size()) {
        rule_packets_.resize(action.rule_id + 1);
      }
      ++rule_packets_[action.rule_id];
    }
    if (action.type == ActionType::kOutput && action.out_port < num_ports()) {
      out.push_back(Tx{&port(action.out_port), std::move(p)});
    }
    // kDrop or invalid port: discard (handle freed with the batch).
  }
  return extra_ns;
}

}  // namespace nfvsb::switches::ovs
