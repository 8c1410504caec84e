#include "switches/ovs/openflow_table.h"

#include <algorithm>

namespace nfvsb::switches::ovs {

std::uint32_t OpenFlowTable::add_rule(OpenFlowRule rule) {
  rule.id = next_id_++;
  rule.action.rule_id = rule.id;
  // Stable insert before the first lower-priority rule.
  const auto pos = std::find_if(
      rules_.begin(), rules_.end(),
      [&](const OpenFlowRule& r) { return r.priority < rule.priority; });
  const std::uint32_t id = rule.id;
  rules_.insert(pos, std::move(rule));
  return id;
}

std::optional<OpenFlowTable::Classification> OpenFlowTable::classify(
    const FlowKey& key) const {
  FlowMask seen;
  for (const OpenFlowRule& r : rules_) {
    seen = seen.union_with(r.mask);
    if (r.mask.apply(key) == r.match) return Classification{r, seen};
  }
  return std::nullopt;
}

}  // namespace nfvsb::switches::ovs
