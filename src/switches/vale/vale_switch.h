// VALE — the netmap-based L2 learning switch (Rizzo & Lettieri, CoNEXT'12).
//
// Distinctive traits modelled here (Sec. 3 of the paper):
//  * interrupt-driven I/O (system calls + NIC interrupts), unlike the
//    busy-polling DPDK switches: a wakeup latency applies on idle->busy;
//  * memory isolation by design: every forwarded frame is COPIED between
//    the source and destination VALE ports (per-byte cost + copy counter);
//  * source-MAC learning + destination lookup, flooding on miss;
//  * adaptive batching (takes whatever is available; no assembly delay).
#pragma once

#include <optional>

#include "core/event_fn.h"
#include "core/simulator.h"
#include "switches/switch_base.h"
#include "switches/vale/mac_table.h"

namespace nfvsb::switches::vale {

class ValeSwitch final : public SwitchBase {
 public:
  ValeSwitch(core::Simulator& sim, hw::CpuCore& core, std::string name,
             CostModel cost = default_cost_model());

  [[nodiscard]] const char* kind() const override { return "VALE"; }

  /// Calibrated against the paper's measurements (see EXPERIMENTS.md):
  /// p2p 64B ~ 5.56 Gbps unidirectional, flat ~32-59 us RTT (interrupts).
  static CostModel default_cost_model();

  [[nodiscard]] const MacTable& mac_table() const { return table_; }
  [[nodiscard]] std::uint64_t floods() const { return floods_; }

  /// mSwitch-style pluggable switching logic (Honda et al., SOSR'15): when
  /// set, replaces the L2 learning lookup. Return the destination port, or
  /// nullopt to fall back to learning/flooding.
  using LookupFn = core::SmallFn<std::optional<std::size_t>,
                                 const pkt::Packet&, std::size_t>;
  void set_lookup_fn(LookupFn fn) { lookup_fn_ = std::move(fn); }

 protected:
  double process_batch(ring::Port& in, std::vector<pkt::PacketHandle>& batch,
                       std::vector<Tx>& out) override;

 private:
  MacTable table_;
  LookupFn lookup_fn_;
  std::uint64_t floods_{0};
};

}  // namespace nfvsb::switches::vale
