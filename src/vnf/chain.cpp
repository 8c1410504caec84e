#include "vnf/chain.h"

#include <string>

#include "core/simulator.h"
#include "hw/numa.h"
#include "switches/switch_base.h"

namespace nfvsb::vnf {

VmChain::VmChain(core::Simulator& sim, hw::Testbed& testbed,
                 switches::SwitchBase& sut, int n, bool containers)
    : containers_(containers) {
  for (int i = 0; i < n; ++i) {
    const std::string vm_name =
        (containers ? "ctr" : "vm") + std::to_string(i + 1);
    ChainHop hop;
    hop.idx_a = sut.num_ports();
    hop.port_a = &sut.add_vhost_user_port(vm_name + ".a");
    hop.idx_b = sut.num_ports();
    hop.port_b = &sut.add_vhost_user_port(vm_name + ".b");
    hops_.push_back(hop);

    // Containers get one pinned core; VMs get QEMU -smp 4.
    std::vector<hw::CpuCore*> vcpus;
    const int cores = containers ? 1 : 4;
    for (int c = 0; c < cores; ++c) vcpus.push_back(&testbed.take_core(0));
    auto vm = std::make_unique<Vm>(vm_name, std::move(vcpus));

    auto cost = L2Fwd::default_cost_model();
    if (containers) {
      // virtio-user skips the guest-physical translation + notification
      // suppression of a real guest driver.
      cost.vhost.rx_ns *= kVhostFixedFactor;
      cost.vhost.tx_ns *= kVhostFixedFactor;
    }
    auto vnf = std::make_unique<L2Fwd>(sim, vm->vcpu(0),
                                       vm_name + ":l2fwd", cost);
    vnf->bind_virtio_pair(*hop.port_a, *hop.port_b);
    vms_.push_back(std::move(vm));
    vnfs_.push_back(std::move(vnf));
  }
}

void VmChain::start() {
  for (auto& vnf : vnfs_) vnf->start();
}

}  // namespace nfvsb::vnf
