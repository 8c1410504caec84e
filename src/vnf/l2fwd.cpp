#include "vnf/l2fwd.h"

#include <cassert>
#include <utility>

#include "core/metrics.h"
#include "core/simulator.h"
#include "pkt/headers.h"
#include "switches/switch_base.h"

namespace nfvsb::vnf {

// Guest-side costs: the virtio PMD inside the VM passes descriptors without
// copying (the copies are on the host/vhost side), so per-packet fixed
// costs only. ~30 ns/pkt of forwarding work keeps a single vcpu well below
// saturation at the rates the chains actually deliver.
switches::CostModel L2Fwd::default_cost_model() {
  switches::CostModel c;
  c.batch_fixed_ns = 150;
  c.pipeline_ns = 18.0;  // mac rewrite + buffering bookkeeping
  c.vhost = switches::PortCosts{14, 11, 0.0, 0.0};   // guest virtio PMD
  c.ptnet = switches::PortCosts{12, 10, 0.0, 0.0};   // guest netmap API
  c.physical = switches::PortCosts{10, 10, 0.0, 0.0};
  c.netmap_host = c.ptnet;
  c.internal = switches::PortCosts{4, 4, 0.0, 0.0};
  c.burst = 32;
  c.jitter_cv = 0.15;
  return c;
}

L2Fwd::L2Fwd(core::Simulator& sim, hw::CpuCore& vcpu, std::string name,
             switches::CostModel cost)
    : SwitchBase(sim, vcpu, std::move(name), cost) {
  if (core::MetricSink* reg = registry()) {
    // Registered under the base `this`, so ~SwitchBase deregisters them.
    reg->add_counter(static_cast<switches::SwitchBase*>(this),
                     "switch/" + this->name() + "/drain_flushes",
                     &drain_flushes_);
    reg->add_counter(static_cast<switches::SwitchBase*>(this),
                     "switch/" + this->name() + "/full_flushes",
                     &full_flushes_);
  }
}

void L2Fwd::bind_virtio_pair(ring::VhostUserPort& dev0,
                             ring::VhostUserPort& dev1) {
  assert(num_ports() == 0);
  // Guest view: rx from what the host wrote (backend.out), tx into what the
  // host reads (backend.in). Guest side is zero-copy.
  add_port(std::make_unique<ring::RingPort>(name() + ":eth0",
                                            ring::PortKind::kVhostUser,
                                            dev0.out(), dev0.in()));
  add_port(std::make_unique<ring::RingPort>(name() + ":eth1",
                                            ring::PortKind::kVhostUser,
                                            dev1.out(), dev1.in()));
}

void L2Fwd::set_dst_mac_rewrite(std::size_t out_port,
                                const pkt::MacAddress& mac) {
  rewrite_.at(out_port) = mac;
}

double L2Fwd::process_batch(ring::Port& in,
                            std::vector<pkt::PacketHandle>& batch,
                            std::vector<Tx>& out) {
  assert(num_ports() == 2);
  const std::size_t in_idx = index_of(in);
  const std::size_t out_idx = 1 - in_idx;
  TxBuffer& buf = tx_buf_[out_idx];

  for (auto& p : batch) {
    pkt::EthHeader eth(p->bytes());
    if (eth.valid()) {
      // l2fwd_mac_updating: src <- own MAC, dst <- configured next hop.
      eth.set_src(pkt::MacAddress::from_u64(0x02f0f0f0f000ULL + in_idx));
      if (rewrite_[out_idx]) eth.set_dst(*rewrite_[out_idx]);
    }
    if (buf.pkts.empty()) buf.oldest = sim().now();
    buf.pkts.push_back(std::move(p));
  }

  // rte_eth_tx_buffer semantics: flush in FULL bursts; the remainder waits
  // for more packets or the drain timer.
  while (buf.pkts.size() >= kTxBurst) {
    ++full_flushes_;
    for (std::size_t i = 0; i < kTxBurst; ++i) {
      out.push_back(Tx{&port(out_idx), std::move(buf.pkts[i])});
    }
    buf.pkts.erase(buf.pkts.begin(),
                   buf.pkts.begin() + static_cast<std::ptrdiff_t>(kTxBurst));
    buf.oldest = sim().now();
  }
  if (!buf.pkts.empty()) arm_drain(out_idx);
  return 0.0;
}

void L2Fwd::arm_drain(std::size_t out_port) {
  TxBuffer& buf = tx_buf_[out_port];
  if (buf.drain_armed) return;
  buf.drain_armed = true;
  const core::SimTime deadline = buf.oldest + drain_timeout_;
  sim().post_at(deadline, [this, out_port] { drain(out_port); });
}

void L2Fwd::drain(std::size_t out_port) {
  TxBuffer& buf = tx_buf_[out_port];
  buf.drain_armed = false;
  if (buf.pkts.empty()) return;
  if (sim().now() - buf.oldest < drain_timeout_) {
    arm_drain(out_port);  // refilled recently; wait out the timer
    return;
  }
  ++drain_flushes_;
  note_deferred_tx(buf.pkts.size());
  for (auto& p : buf.pkts) direct_tx(port(out_port), std::move(p));
  buf.pkts.clear();
}

}  // namespace nfvsb::vnf
