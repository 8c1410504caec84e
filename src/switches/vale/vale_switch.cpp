#include "switches/vale/vale_switch.h"

#include <utility>

#include "core/simulator.h"
#include "switches/switch_base.h"

namespace nfvsb::switches::vale {

// Calibration (derivation in EXPERIMENTS.md):
//  * 64B p2p unidirectional 5.56 Gbps = 8.27 Mpps -> ~121 ns/pkt total.
//    Split: rx 18 + lookup/learn 25 + copy 64B*0.085 ~ 5.5 + tx 18 +
//    batch amortized ~ 54 -> the remaining fixed cost sits in pipeline_ns.
//  * copy cost 0.085 ns/B (~11.8 GB/s effective single-core memcpy) drives
//    the v2v 1024B ceiling (~55 Gbps uni with pkt-gen, 35 Gbps bidir).
//  * wakeup_latency ~ 26 us reproduces the flat, interrupt-dominated RTT
//    (32/34/59 us in Table 3) that exceeds DPDK switches at low load.
CostModel ValeSwitch::default_cost_model() {
  CostModel c;
  c.batch_fixed_ns = 900;  // syscall (NIOCTXSYNC/RXSYNC) per round
  c.pipeline_ns = 10;      // learning + dst lookup + slot management
  // NIC rx is the expensive leg (interrupt path + rxsync); ptnet ports are
  // cheap shared-memory rings -- which is why VALE's v2v beats its p2p
  // (10.5 vs 5.56 Gbps in the paper).
  c.physical = PortCosts{73, 19, 0.0, 0.078};
  c.ptnet = PortCosts{18, 18, 0.0, 0.078};
  c.vhost = PortCosts{60, 60, 0.15, 0.15};  // not used by VALE setups
  c.internal = PortCosts{5, 5, 0.0, 0.0};
  c.burst = 256;  // adaptive batching: drain what is available
  c.batch_timeout = 0;
  c.wakeup_latency = core::from_us(18);        // irq handler + kthread sched
  c.wakeup_latency_virtual = core::from_us(2);  // ptnet doorbell/syscall
  c.interrupt_coalescing = core::from_us(30);   // ixgbe ITR under load
  c.alternation_byte_factor = 1.75;  // bidir copy streams thrash the cache
  c.jitter_cv = 0.12;  // interrupt scheduling noise
  c.stall_prob = 0.0;
  return c;
}

ValeSwitch::ValeSwitch(core::Simulator& sim, hw::CpuCore& core,
                       std::string name, CostModel cost)
    : SwitchBase(sim, core, std::move(name), cost), table_(1024) {}

double ValeSwitch::process_batch(ring::Port& in,
                                 std::vector<pkt::PacketHandle>& batch,
                                 std::vector<Tx>& out) {
  const std::size_t in_idx = index_of(in);
  double extra_ns = 0.0;
  for (auto& p : batch) {
    pkt::EthHeader eth(p->bytes());
    if (!eth.valid()) continue;  // runt frame: discard
    table_.learn(eth.src(), in_idx, sim().now());
    const auto dst = table_.lookup(eth.dst(), sim().now());
    if (dst && *dst == in_idx) continue;  // hairpin: filter
    if (dst) {
      // The destination copy itself (VALE isolates port memory) is the
      // per-byte TX cost of the cost model.
      out.push_back(Tx{&port(*dst), std::move(p)});
      continue;
    }
    // Flood to all other ports (clone per extra destination would need a
    // pool; VALE forwards the original to the first and copies to others —
    // in our scenarios floods only ever have one other port).
    ++floods_;
    for (std::size_t i = 0; i < num_ports(); ++i) {
      if (i == in_idx) continue;
      extra_ns += 10.0;  // per-extra-destination bookkeeping
      out.push_back(Tx{&port(i), std::move(p)});
      break;  // single-copy flood (see comment above)
    }
  }
  return extra_ns;
}

}  // namespace nfvsb::switches::vale
