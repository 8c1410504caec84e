// FastClick — Click modular router with DPDK I/O, full run-to-completion
// batching (Barbette et al., ANCS'15).
//
// Modelled behaviours:
//  * element graph configured in the Click language (ConfigParser);
//  * per-element costs; the paper notes FastClick "additionally extracts
//    and updates packet header fields" vs BESS's bare forwarding;
//  * Table 2 tuning: descriptor ring size raised to 4096 (applied by the
//    scenario builder via NicPort config);
//  * its own output batching contributes extra latency at low load
//    (Sec. 5.3: 0.10 R+ >> 0.50 R+ for FastClick with long chains).
#pragma once

#include <span>
#include <string>

#include "core/simulator.h"
#include "switches/fastclick/config_parser.h"
#include "switches/fastclick/element.h"
#include "switches/switch_base.h"

namespace nfvsb::switches::fastclick {

class FastClickSwitch final : public SwitchBase {
 public:
  FastClickSwitch(core::Simulator& sim, hw::CpuCore& core, std::string name,
                  CostModel cost = default_cost_model());

  static CostModel default_cost_model();

  /// Parse a Click config. Device numbers refer to switch port indices
  /// (ports must be attached first).
  void configure(const std::string& click_config);

  /// Configure `FromDPDKDevice(in) -> EtherMirror() -> ToDPDKDevice(out)`
  /// per pair, the paper's Click config.
  void wire(std::span<const PortPair> pairs) override;

  [[nodiscard]] Router& router() { return router_; }

 protected:
  double process_batch(ring::Port& in, std::vector<pkt::PacketHandle>& batch,
                       std::vector<Tx>& out) override;

 private:
  Router router_;
  /// Reused by every push (only its emitted buffer carries over).
  PushContext ctx_;
};

}  // namespace nfvsb::switches::fastclick
