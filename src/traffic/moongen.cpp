#include "traffic/moongen.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "core/metrics.h"
#include "core/simulator.h"
#include "core/trace_sink.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"

namespace nfvsb::traffic {

MoonGen::MoonGen(core::Simulator& sim, pkt::PacketPool& pool, Config cfg)
    : sim_(sim),
      pool_(pool),
      cfg_(cfg),
      recipe_(cfg.frame, cfg.num_flows, cfg.origin),
      rx_meter_(cfg.meter_open_at) {
  if (core::MetricSink* reg = core::metrics()) {
    registry_ = reg;
    const std::string base = "gen/moongen." + std::to_string(cfg_.origin);
    reg->add_counter(this, base + "/tx_sent", &tx_sent_);
    reg->add_counter(this, base + "/tx_failed", &tx_failed_);
    reg->add_counter(this, base + "/pool_exhausted", &pool_exhausted_);
  }
}

MoonGen::~MoonGen() {
  if (tx_nic_ != nullptr) tx_nic_->detach_tx_source();
  if (tx_guest_ != nullptr) tx_guest_->out().detach_source();
  if (registry_ != nullptr) registry_->remove(this);
}

void MoonGen::attach_tx_nic(hw::NicPort& nic) {
  assert(tx_nic_ == nullptr && tx_guest_ == nullptr);
  nic.attach_tx_source(*this);  // throws if the port has a source already
  tx_nic_ = &nic;
  gap_ps_ = static_cast<double>(core::kSecond) /
            (cfg_.rate_pps > 0
                 ? cfg_.rate_pps
                 : nic.rate().line_rate_pps(cfg_.frame.frame_bytes));
}

void MoonGen::attach_tx_guest(ring::Port& port, double min_gap_ps) {
  assert(tx_nic_ == nullptr && tx_guest_ == nullptr);
  tx_guest_ = &port;
  port.out().feed_from_source(sim_, *this);
  gap_ps_ = cfg_.rate_pps > 0
                ? std::max(min_gap_ps,
                           static_cast<double>(core::kSecond) / cfg_.rate_pps)
                : min_gap_ps;
}

void MoonGen::start_tx(core::SimTime at, core::SimTime until) {
  assert((tx_nic_ != nullptr || tx_guest_ != nullptr) && "attach TX first");
  assert(gap_ps_ > 0);
  tx_until_ = until;
  next_at_ = at;
  // Probes start once meters are open so warm-up artifacts (JIT traces,
  // cold caches) do not pollute the latency distribution.
  next_probe_at_ = std::max(at, cfg_.meter_open_at);
  if (tx_nic_ != nullptr) {
    tx_nic_->wake_tx();
  } else {
    tx_guest_->out().wake_source();
  }
}

core::SimTime MoonGen::next_emit() const {
  return next_at_ < tx_until_ ? next_at_ : kNever;
}

void MoonGen::emit_next() {
  assert(next_at_ < tx_until_);
  emit_one(next_at_);
  next_at_ += gap();
}

void MoonGen::emit_one(core::SimTime at) {
  // A frame sent over a NIC takes its pool buffer only where it lands; one
  // a guest sends takes a reservation now (pkt/frame.h). A probe is built
  // now, any other frame where something first reads it.
  const bool probe = cfg_.probe_interval > 0 && at >= next_probe_at_;
  if ((tx_nic_ == nullptr || probe) && !pool_.reserve()) {
    ++pool_exhausted_;
    return;
  }
  pkt::FrameMeta meta;
  meta.seq = ++seq_;
  if (core::TraceSink* t = core::tracer()) {
    if (t->sample_hit(seq_)) meta.trace_id = t->next_packet_id();
  }
  if (probe) {
    meta.probe_id = ++probe_seq_;
    next_probe_at_ = at + cfg_.probe_interval;
    if (cfg_.software_timestamps) meta.sw_timestamp = at;
  }
  pkt::PacketHandle built;
  if (meta.probe_id != 0 || (tx_nic_ == nullptr && meta.trace_id != 0)) {
    built = pool_.allocate_reserved();
    recipe_.build(*built, meta);
  }
  if (send(meta, std::move(built))) {
    ++tx_sent_;
  } else {
    ++tx_failed_;
  }
}

bool MoonGen::send(const pkt::FrameMeta& meta, pkt::PacketHandle built) {
  pkt::Frame f =
      built ? pkt::Frame(std::move(built))
      : tx_nic_ != nullptr
          ? pkt::Frame::unreserved(recipe_, pool_, meta.seq, meta.trace_id)
          : pkt::Frame(recipe_, pool_, meta.seq);
  if (tx_nic_ == nullptr) return tx_guest_->tx(std::move(f));
  // The wire source runs untraced (hw/nic.h).
  assert(!tx_nic_->wired() || meta.trace_id == 0);
  return tx_nic_->wired() ? tx_nic_->wire_accept(std::move(f))
                          : tx_nic_->tx_ring().enqueue(std::move(f));
}

core::SimDuration MoonGen::gap() {
  const double exact = gap_ps_ + pace_frac_;
  const auto whole = static_cast<core::SimDuration>(exact);
  pace_frac_ = exact - static_cast<double>(whole);
  return whole;
}

void MoonGen::attach_rx_nic(hw::NicPort& nic) {
  // HW timestamps: sample at the MAC, before DMA (probe RTTs exclude the
  // monitor-side DMA, as with real 82599 PTP stamping).
  if (!cfg_.software_timestamps) {
    nic.set_rx_timestamp_hook([this](const pkt::Packet& p, core::SimTime t) {
      if (p.tx_timestamp != core::kNoTimestamp) {
        latency_.record(t - p.tx_timestamp);
      }
    });
  }
  // Timed sinks: the NIC hands each frame over as soon as it is on the
  // wire, with the time its DMA completes.
  for (std::size_t q = 0; q < nic.num_queues(); ++q) {
    nic.rx_ring(q).set_sink([this](pkt::PacketHandle p, core::SimTime at) {
      on_rx(*p, at, cfg_.software_timestamps);
    });
  }
}

void MoonGen::attach_rx_guest(ring::Port& port) {
  port.in().set_sink(
      [this](pkt::PacketHandle p) { on_rx(*p, sim_.now(), true); });
}

void MoonGen::on_rx(const pkt::Packet& p, core::SimTime at,
                    bool sw_latency) {
  rx_meter_.on_packet(at, p.size());
  if (sw_latency && p.probe_id != 0 && p.sw_timestamp != core::kNoTimestamp) {
    latency_.record(at - p.sw_timestamp);
  }
}

}  // namespace nfvsb::traffic
