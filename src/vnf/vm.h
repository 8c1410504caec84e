// QEMU/KVM virtual machine.
//
// The paper deploys each VNF in a CentOS 7 VM with 4 vcpus (QEMU -smp 4).
// The VM here is a resource container: vcpus (cores taken from the NUMA-0
// pool) and the guest views of its paravirtual devices. A device is a host
// port (vhost-user or ptnet) seen from the guest: one ring::Port with the
// host's rings swapped, whatever its kind. Instruction-level emulation is
// out of scope — virtualization costs live in the switch's per-kind port
// costs, which is where the paper locates them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/cpu_core.h"
#include "ring/port.h"

namespace nfvsb::vnf {

class Vm {
 public:
  Vm(std::string name, std::vector<hw::CpuCore*> vcpus)
      : name_(std::move(name)), vcpus_(std::move(vcpus)) {}

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t vcpu_count() const { return vcpus_.size(); }
  [[nodiscard]] hw::CpuCore& vcpu(std::size_t i) { return *vcpus_.at(i); }

  /// Attach a device whose host side is `host` (a switch's vhost-user or
  /// ptnet port); returns the guest's view of it.
  ring::Port& attach(ring::Port& host) {
    devices_.push_back(std::make_unique<ring::Port>(host.name() + ".guest",
                                                    host));
    return *devices_.back();
  }

 private:
  std::string name_;
  std::vector<hw::CpuCore*> vcpus_;
  std::vector<std::unique_ptr<ring::Port>> devices_;
};

}  // namespace nfvsb::vnf
