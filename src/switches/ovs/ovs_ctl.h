// ovs-ofctl style flow programming, so scenario configs read like the
// paper's appendix ("we populate the flow table with direct forwarding
// rules between the interfaces using the ovs-ofctl command").
//
// Supported grammar (subset of ovs-ofctl add-flow):
//   add-flow <br> "priority=P,in_port=N,dl_dst=MAC,dl_type=0xHHHH,
//                  nw_src=IP,nw_dst=IP,nw_proto=N,tp_src=N,tp_dst=N,
//                  actions=output:N|drop"
//
// in_port / output use OpenFlow's 1-based port numbering.
#pragma once

#include <string>

#include "switches/ovs/ovs_switch.h"

namespace nfvsb::switches::ovs {

class OvsOfctl {
 public:
  explicit OvsOfctl(OvsSwitch& sw) : sw_(sw) {}

  /// Execute one `add-flow` command; throws std::invalid_argument on
  /// syntax errors.
  void run(const std::string& command);

  /// Parse just the flow spec (the quoted part) into a rule.
  static OpenFlowRule parse_flow(const std::string& spec);

  /// Render the table like `ovs-ofctl dump-flows`.
  [[nodiscard]] std::string dump_flows() const;

 private:
  OvsSwitch& sw_;
};

}  // namespace nfvsb::switches::ovs
