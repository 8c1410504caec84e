// Service-chain builder: creates the VMs and l2fwd VNFs for the loopback
// scenario over a vhost-user switch (everything except VALE, which chains
// guest VALE instances over ptnet — see scenario/topology.cpp).
#pragma once

#include <memory>
#include <vector>

#include "core/simulator.h"
#include "hw/numa.h"
#include "switches/switch_base.h"
#include "vnf/l2fwd.h"
#include "vnf/vm.h"

namespace nfvsb::vnf {

/// One hop of the chain: the two switch-side vhost ports flanking VM i.
struct ChainHop {
  ring::VhostUserPort* port_a{nullptr};  ///< toward the VM, forward path in
  ring::VhostUserPort* port_b{nullptr};  ///< from the VM, forward path out
  std::size_t idx_a{0};                  ///< switch port index of port_a
  std::size_t idx_b{0};
};

class VmChain {
 public:
  /// Create `n` VMs on `sut`, each with a virtio pair and an l2fwd VNF
  /// pinned to its first vcpu. Vcpus are taken from testbed node 0 (4 per
  /// VM, per the paper's QEMU -smp 4). With `containers` set, the VNFs run
  /// as containerized host processes (1 core each, virtio-user devices,
  /// cheaper guest driver — see vnf/container.h).
  VmChain(core::Simulator& sim, hw::Testbed& testbed,
          switches::SwitchBase& sut, int n, bool containers = false);

  [[nodiscard]] bool containers() const { return containers_; }

  [[nodiscard]] int length() const { return static_cast<int>(hops_.size()); }
  [[nodiscard]] const ChainHop& hop(int i) const {
    return hops_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] L2Fwd& vnf(int i) { return *vnfs_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] Vm& vm(int i) { return *vms_.at(static_cast<std::size_t>(i)); }

  /// Start every VNF (after the SUT's ports are final).
  void start();

 private:
  bool containers_{false};
  std::vector<ChainHop> hops_;
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<std::unique_ptr<L2Fwd>> vnfs_;
};

}  // namespace nfvsb::vnf
