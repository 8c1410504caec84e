#include "hw/numa.h"

#include <cassert>

#include "core/simulator.h"

namespace nfvsb::hw {

Testbed::Testbed(core::Simulator& sim, Config cfg) {
  nodes_.resize(kNodes);
  next_core_.assign(kNodes, 0);
  for (int n = 0; n < kNodes; ++n) {
    auto& node = nodes_[static_cast<std::size_t>(n)];
    node.id = n;
    for (int p = 0; p < kPortsPerNode; ++p) {
      node.nic_ports.push_back(std::make_unique<NicPort>(
          sim, "nic" + std::to_string(n) + "." + std::to_string(p), cfg.nic));
    }
    for (int c = 0; c < cfg.cores_per_node; ++c) {
      node.cores.push_back(std::make_unique<CpuCore>(
          sim, "core" + std::to_string(n) + "." + std::to_string(c), n));
    }
  }
  // Wire node 0's ports to node 1's ports (Fig. 3 blue arrows).
  for (int p = 0; p < kPortsPerNode; ++p) {
    cables_.push_back(std::make_unique<Cable>(sim, nic(0, p), nic(1, p)));
  }
}

std::size_t Testbed::rx_descriptors() {
  std::size_t n = 0;
  for (auto& node : nodes_) {
    for (auto& port : node.nic_ports) {
      for (std::size_t q = 0; q < port->num_queues(); ++q) {
        n += port->rx_ring(q).capacity();
      }
    }
  }
  return n;
}

void Testbed::land_eagerly() {
  for (auto& node : nodes_) {
    for (auto& port : node.nic_ports) port->land_eagerly();
  }
}

CpuCore& Testbed::take_core(int n) {
  auto& idx = next_core_.at(static_cast<std::size_t>(n));
  auto& node = nodes_.at(static_cast<std::size_t>(n));
  assert(idx < node.cores.size() && "out of isolated cores on this node");
  return *node.cores[idx++];
}

}  // namespace nfvsb::hw
