#include "hw/nic.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/metrics.h"
#include "core/simulator.h"
#include "core/trace_sink.h"
#include "hw/cable.h"
#include "pkt/headers.h"
#include "ring/spsc_ring.h"

namespace nfvsb::hw {

NicPort::NicPort(core::Simulator& sim, std::string name, Config cfg)
    : sim_(sim), name_(std::move(name)), cfg_(cfg) {
  assert(cfg.num_queues >= 1);
  for (std::size_t q = 0; q < cfg.num_queues; ++q) {
    rx_rings_.push_back(std::make_unique<ring::SpscRing>(
        name_ + ".rx" + std::to_string(q), cfg.rx_ring_depth));
    tx_rings_.push_back(std::make_unique<ring::SpscRing>(
        name_ + ".tx" + std::to_string(q), cfg.tx_ring_depth));
    tx_rings_.back()->set_watcher([this](bool) { on_tx_enqueue(); });
  }
  if (core::MetricSink* reg = core::metrics()) {
    registry_ = reg;
    reg->add_counter(this, "nic/" + name_ + "/tx_frames", &tx_frames_);
    reg->add_counter(this, "nic/" + name_ + "/rx_frames", &rx_frames_);
  }
}

NicPort::~NicPort() {
  if (registry_ != nullptr) registry_->remove(this);
}

std::uint64_t NicPort::imissed() const {
  std::uint64_t n = 0;
  for (const auto& r : rx_rings_) n += r->drops();
  return n;
}

void NicPort::on_tx_enqueue() {
  if (tx_busy_) return;
  tx_busy_ = true;
  // While the last frame is still on the wire this is the same busy period:
  // the fetch was pipelined behind serialization, so the frame leaves as
  // soon as the wire frees. On an idle wire the first frame of a new busy
  // period pays the descriptor/DMA fetch latency. The busy period is one
  // adaptive recurring timer that stops itself (serialize_step returns
  // kStopTimer once the rings drain), so its id is deliberately dropped.
  const core::SimTime now = sim_.now();
  const core::SimDuration first =
      wire_free_at_ > now ? wire_free_at_ - now : cfg_.dma_tx_latency;
  (void)sim_.schedule_every(first, core::Simulator::RecurringFn([this] {
                              return serialize_step();
                            }));
}

core::SimDuration NicPort::serialize_step() {
  // Round-robin across TX queues (82599 WRR with equal weights).
  pkt::PacketHandle p;
  for (std::size_t k = 0; k < tx_rings_.size(); ++k) {
    const std::size_t q = (tx_rr_ + k) % tx_rings_.size();
    p = tx_rings_[q]->dequeue();
    if (p) {
      tx_rr_ = (q + 1) % tx_rings_.size();
      break;
    }
  }
  if (!p) {
    tx_busy_ = false;
    return core::Simulator::kStopTimer;
  }
  // The frame occupies the wire for `ser` from now; everything that happens
  // when its last bit leaves the MAC is known already, so do it here.
  const core::SimTime now = sim_.now();
  const core::SimDuration ser = cfg_.rate.serialization_time(p->size());
  ++tx_frames_;
  if (cfg_.hw_timestamping && p->probe_id != 0 &&
      p->tx_timestamp == core::kNoTimestamp) {
    p->tx_timestamp = now + ser;
  }
  if (core::TraceSink* t = core::tracer()) {
    if (p->trace_id != 0) {
      t->complete(t->track("nic/" + name_ + "/wire"), "wire", now, ser,
                  p->seq);
    }
  }
  if (cable_ != nullptr) cable_->transmit(*this, std::move(p), ser);
  // No cable: frame vanishes (unplugged port), handle frees it.
  const bool drained =
      std::all_of(tx_rings_.begin(), tx_rings_.end(),
                  [](const auto& r) { return r->empty(); });
  if (drained) {
    tx_busy_ = false;
    wire_free_at_ = now + ser;
    return core::Simulator::kStopTimer;
  }
  return ser;
}

std::size_t NicPort::rss_queue(const pkt::Packet& p) const {
  if (rx_rings_.size() == 1) return 0;
  const auto tuple = pkt::parse_five_tuple(p.bytes());
  if (!tuple) return 0;  // non-IP lands on queue 0
  return static_cast<std::size_t>(tuple->hash() % rx_rings_.size());
}

void NicPort::deliver_from_wire(pkt::PacketHandle p,
                                core::SimDuration delay) {
  auto* raw = p.release();
  sim_.post_in(delay + cfg_.dma_rx_latency, [this, raw] {
    pkt::PacketHandle frame{raw};
    ++rx_frames_;
    if (cfg_.hw_timestamping && frame->probe_id != 0 && rx_ts_hook_) {
      // 82599 stamps PTP frames at the MAC, before DMA.
      rx_ts_hook_(*frame, sim_.now() - cfg_.dma_rx_latency);
    }
    const std::size_t q = rss_queue(*frame);
    rx_rings_[q]->enqueue(std::move(frame));  // overflow => imissed
  });
}

}  // namespace nfvsb::hw
