// Testbed topology: a two-NUMA-node COTS server modeled after the paper's
// platform (2x Xeon E5-2690 v3, two dual-port Intel 82599 10 GbE NICs, one
// dual-port NIC per NUMA node, each wired to the other node's NIC — Fig. 3).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "hw/cable.h"
#include "hw/cpu_core.h"
#include "hw/nic.h"

namespace nfvsb::hw {

struct NumaNode {
  int id{0};
  /// Two 10 GbE ports of the node-local dual-port NIC.
  std::vector<std::unique_ptr<NicPort>> nic_ports;
  /// Isolated cores available for pinning (SUT, VMs, generators).
  std::vector<std::unique_ptr<CpuCore>> cores;
};

/// The whole testbed server. NUMA node 1 hosts traffic generation, NUMA
/// node 0 hosts the SUT and the VMs; node 0's NIC ports are wired to node
/// 1's (cable 0-0 <-> 1-0, 0-1 <-> 1-1).
class Testbed {
 public:
  struct Config {
    int cores_per_node{12};
    NicPort::Config nic;
  };

  static constexpr int kNodes = 2;
  static constexpr int kPortsPerNode = 2;
  // Each NIC port takes one of its simulator's fixed lanes for its TX
  // fetch (core/simulator.h), so a simulator holds at most kMaxLanes ports.
  static_assert(kNodes * kPortsPerNode <= core::Simulator::kMaxLanes,
                "one simulator lane per NIC port");

  Testbed(core::Simulator& sim, Config cfg);
  explicit Testbed(core::Simulator& sim) : Testbed(sim, Config{}) {}

  [[nodiscard]] NumaNode& node(int i) { return nodes_.at(static_cast<std::size_t>(i)); }

  /// NIC port `p` (0/1) on NUMA node `n` (0/1).
  [[nodiscard]] NicPort& nic(int n, int p) {
    return *node(n).nic_ports.at(static_cast<std::size_t>(p));
  }

  /// Allocate the next free core on a node (asserts availability).
  [[nodiscard]] CpuCore& take_core(int n);

  /// RX descriptors over every port: at most this many frames can wait in
  /// flight for a lazy landing to take their buffers.
  [[nodiscard]] std::size_t rx_descriptors();
  /// Every port lands each frame at its arrival from now on
  /// (NicPort::land_eagerly).
  void land_eagerly();

 private:
  std::vector<NumaNode> nodes_;
  std::vector<std::unique_ptr<Cable>> cables_;
  std::vector<std::size_t> next_core_;
};

}  // namespace nfvsb::hw
