// The slow-path OpenFlow rule table (ofproto). Consulted on megaflow miss
// ("upcall"); the matching rule's mask seeds the megaflow entry that will
// absorb subsequent packets of the flow.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "switches/ovs/flow.h"

namespace nfvsb::switches::ovs {

struct OpenFlowRule {
  /// Assigned by OpenFlowTable::add_rule; keys the per-rule statistics.
  std::uint32_t id{0};
  std::uint32_t priority{0};
  FlowMask mask;          ///< which fields `match` constrains
  FlowKey match;          ///< constrained field values (masked fields only)
  Action action;
  std::string description;  ///< as written via ovs-ofctl, for dump-flows
};

class OpenFlowTable {
 public:
  /// Returns the assigned rule id.
  std::uint32_t add_rule(OpenFlowRule rule);

  /// The highest-priority matching rule (stable order among equal
  /// priorities) with its megaflow mask: the union of the
  /// masks of every rule EXAMINED up to and including the match. Installing
  /// megaflows with this "unwildcarded" mask is what keeps the cache from
  /// absorbing packets a higher-priority rule should catch (OvS's
  /// classifier does the same, per-field).
  struct Classification {
    OpenFlowRule rule;
    FlowMask megaflow_mask;
  };
  [[nodiscard]] std::optional<Classification> classify(
      const FlowKey& key) const;

  [[nodiscard]] std::size_t size() const { return rules_.size(); }
  [[nodiscard]] const std::vector<OpenFlowRule>& rules() const {
    return rules_;
  }

 private:
  std::vector<OpenFlowRule> rules_;  // kept sorted by descending priority
  std::uint32_t next_id_{1};
};

}  // namespace nfvsb::switches::ovs
