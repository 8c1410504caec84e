// VALE — the netmap-based L2 learning switch (Rizzo & Lettieri, CoNEXT'12).
//
// Distinctive traits modelled here (Sec. 3 of the paper):
//  * interrupt-driven I/O (system calls + NIC interrupts), unlike the
//    busy-polling DPDK switches: a wakeup latency applies on idle->busy;
//  * memory isolation by design: every forwarded frame is COPIED between
//    the source and destination VALE ports (a per-byte TX cost);
//  * source-MAC learning + destination lookup, flooding on miss;
//  * adaptive batching (takes whatever is available; no assembly delay).
#pragma once

#include "core/simulator.h"
#include "switches/switch_base.h"
#include "switches/vale/mac_table.h"

namespace nfvsb::switches::vale {

class ValeSwitch final : public SwitchBase {
 public:
  ValeSwitch(core::Simulator& sim, hw::CpuCore& core, std::string name,
             CostModel cost = default_cost_model());

  /// Calibrated against the paper's measurements (see EXPERIMENTS.md):
  /// p2p 64B ~ 5.56 Gbps unidirectional, flat ~32-59 us RTT (interrupts).
  static CostModel default_cost_model();

  [[nodiscard]] const MacTable& mac_table() const { return table_; }
  [[nodiscard]] std::uint64_t floods() const { return floods_; }

 protected:
  double process_batch(ring::Port& in, std::vector<pkt::PacketHandle>& batch,
                       std::vector<Tx>& out) override;

 private:
  MacTable table_;
  std::uint64_t floods_{0};
};

}  // namespace nfvsb::switches::vale
