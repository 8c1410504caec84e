#include "vnf/vale_guest.h"

#include "core/simulator.h"

namespace nfvsb::vnf {

GuestVale::GuestVale(core::Simulator& sim, hw::CpuCore& vcpu,
                     const std::string& name, ring::PtnetPort& dev0,
                     ring::PtnetPort& dev1) {
  // Guest instances never touch physical NICs: only the cheap virtual
  // (ptnet doorbell) wake path applies.
  auto cost = switches::vale::ValeSwitch::default_cost_model();
  cost.wakeup_latency = cost.wakeup_latency_virtual;
  sw_ = std::make_unique<switches::vale::ValeSwitch>(sim, vcpu, name, cost);
  sw_->add_port(std::make_unique<ring::Port>(name + ":ptnet0", dev0));
  sw_->add_port(std::make_unique<ring::Port>(name + ":ptnet1", dev1));
}

}  // namespace nfvsb::vnf
