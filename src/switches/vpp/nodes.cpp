#include "switches/vpp/nodes.h"

#include "pkt/headers.h"

namespace nfvsb::switches::vpp {

double EthernetInputNode::process(Vector& frame) {
  for (auto& e : frame) {
    if (e.drop) continue;
    pkt::EthHeader eth(e.pkt->bytes());
    if (!eth.valid()) {
      e.drop = true;
      ++runts_;
    }
  }
  return 0.0;
}

double L2PatchNode::process(Vector& frame) {
  for (auto& e : frame) {
    if (e.drop) continue;
    const auto it = patches_.find(e.rx_port);
    if (it != patches_.end()) e.tx_port = it->second;
    // Unclaimed packets fall through to the implicit error-drop.
  }
  return 0.0;
}

}  // namespace nfvsb::switches::vpp
