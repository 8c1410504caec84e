// Concrete VPP graph nodes of the paper's configuration: ethernet-input
// validation, then the l2patch cross-connect.
#pragma once

#include <map>

#include "switches/vpp/graph.h"

namespace nfvsb::switches::vpp {

/// ethernet-input: validates frames, drops runts/garbage.
class EthernetInputNode final : public Node {
 public:
  EthernetInputNode() : Node("ethernet-input", 90, 8.5) {}
  double process(Vector& frame) override;

  [[nodiscard]] std::uint64_t runts_dropped() const { return runts_; }

 private:
  std::uint64_t runts_{0};
};

/// l2patch: statically cross-connects rx port -> tx port, the paper's p2p
/// configuration ("test l2patch rx port0 tx port1").
class L2PatchNode final : public Node {
 public:
  L2PatchNode() : Node("l2-patch", 60, 7.0) {}

  void patch(std::size_t rx_port, std::size_t tx_port) {
    patches_[rx_port] = tx_port;
  }
  [[nodiscard]] bool has_patch(std::size_t rx_port) const {
    return patches_.contains(rx_port);
  }

  double process(Vector& frame) override;

 private:
  std::map<std::size_t, std::size_t> patches_;
};

}  // namespace nfvsb::switches::vpp
