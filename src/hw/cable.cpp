#include "hw/cable.h"

#include <cassert>
#include <utility>

#include "core/simulator.h"
#include "hw/nic.h"

namespace nfvsb::hw {

Cable::Cable(core::Simulator& /*sim*/, NicPort& a, NicPort& b,
             core::SimDuration propagation)
    : a_(a), b_(b), propagation_(propagation) {
  a_.attach_cable(this);
  b_.attach_cable(this);
}

void Cable::transmit(NicPort& from, pkt::Frame&& f,
                     core::SimDuration departure) {
  assert(&from == &a_ || &from == &b_);
  peer(from).deliver_from_wire(std::move(f), departure + propagation_);
}

}  // namespace nfvsb::hw
