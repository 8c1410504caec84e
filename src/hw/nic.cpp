#include "hw/nic.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "core/metrics.h"
#include "core/simulator.h"
#include "core/trace_sink.h"
#include "hw/cable.h"
#include "pkt/headers.h"
#include "ring/spsc_ring.h"

namespace nfvsb::hw {

NicPort::NicPort(core::Simulator& sim, std::string name, Config cfg)
    : sim_(sim),
      name_(std::move(name)),
      cfg_(cfg),
      tx_lane_(sim_.add_lane(core::Simulator::RecurringFn(
          [this] { return serialize_step(); }))) {
  assert(cfg.num_queues >= 1);
  for (std::size_t q = 0; q < cfg.num_queues; ++q) {
    rx_rings_.push_back(std::make_unique<ring::SpscRing>(
        name_ + ".rx" + std::to_string(q), cfg.rx_ring_depth));
    rx_rings_.back()->feed_from_wire(
        sim_, [this](pkt::Frame& frame, core::SimTime at) {
          count_arrival(frame, at);
        });
    tx_rings_.push_back(std::make_unique<ring::SpscRing>(
        name_ + ".tx" + std::to_string(q), cfg.tx_ring_depth));
    tx_rings_.back()->set_watcher([this](bool) { on_tx_enqueue(); });
  }
  if (core::MetricSink* reg = core::metrics()) {
    registry_ = reg;
    reg->add_counter(this, "nic/" + name_ + "/tx_frames", &tx_frames_);
    reg->add_counter(this, "nic/" + name_ + "/rx_frames", &rx_frames_);
    // The queue sampler reads the rings as they stand at its event.
    reg->add_sync(this, [](void* owner) {
      auto* nic = static_cast<NicPort*>(owner);
      nic->catch_up_rx();
      nic->pull_source();
    });
  }
}

NicPort::~NicPort() {
  sim_.remove_lane(tx_lane_);
  if (registry_ != nullptr) registry_->remove(this);
}

std::uint64_t NicPort::imissed() const {
  std::uint64_t n = 0;
  for (const auto& r : rx_rings_) n += r->drops();
  return n;
}

void NicPort::catch_up_rx() {
  for (auto& r : rx_rings_) r->catch_up();
}

std::uint64_t NicPort::rx_frames() const {
  for (const auto& r : rx_rings_) r->catch_up();
  return rx_frames_;
}

void NicPort::attach_tx_source(ring::TxSource& s) {
  if (tx_source_ != nullptr) {
    throw std::logic_error("NIC port " + name_ + " already has a TX source");
  }
  tx_source_ = &s;
}

void NicPort::detach_tx_source() { tx_source_ = nullptr; }

core::SimTime NicPort::fetch_time(core::SimTime ready) const {
  // While the last frame is still on the wire this is the same busy period:
  // the fetch was pipelined behind serialization, so the frame leaves as
  // soon as the wire frees. On an idle wire the first frame of a new busy
  // period pays the descriptor/DMA fetch latency.
  return wire_free_at_ > ready ? wire_free_at_ : ready + cfg_.dma_tx_latency;
}

void NicPort::on_tx_enqueue() { arm_fetch(fetch_time(sim_.now())); }

void NicPort::wake_tx() {
  source_order_ = sim_.reserve_order();
  const core::SimTime next = tx_source_->next_emit();
  if (next != ring::TxSource::kNever) arm_fetch(fetch_time(next));
}

void NicPort::arm_fetch(core::SimTime at) {
  // When the armed fetch waits for a source's next emit, a frame pushed in
  // meanwhile may be due earlier: re-arming replaces the pending fetch.
  if (tx_busy_ && tx_fetch_at_ <= at) return;
  // serialize_step returns the delay to each next fetch and stops the lane
  // when nothing is left.
  tx_busy_ = true;
  tx_fetch_at_ = at;
  sim_.arm_lane(tx_lane_, at);
}

void NicPort::pull_source() {
  // Each frame's successor takes its order key once the frame is in, as
  // SpscRing::pull_source does (ring/tx_source.h).
  if (tx_source_ == nullptr) return;
  while (sim_.reached(tx_source_->next_emit(), source_order_)) {
    tx_source_->emit_next();
    source_order_ = sim_.reserve_order();
  }
}

core::SimDuration NicPort::serialize_step() {
  const core::SimTime now = sim_.now();
  pull_source();
  // Round-robin across TX queues (82599 WRR with equal weights).
  pkt::Frame f;
  for (std::size_t k = 0; k < tx_rings_.size(); ++k) {
    const std::size_t q = (tx_rr_ + k) % tx_rings_.size();
    f = tx_rings_[q]->dequeue_frame();
    if (f) {
      tx_rr_ = (q + 1) % tx_rings_.size();
      break;
    }
  }
  if (f) {
    // The frame occupies the wire for `ser` from now; everything that
    // happens when its last bit leaves the MAC is known already, so do it
    // here. A generator's frame goes on unbuilt.
    const core::SimDuration ser = cfg_.rate.serialization_time(f.size());
    ++tx_frames_;
    if (cfg_.hw_timestamping && f.probe_id() != 0 &&
        f.packet().tx_timestamp == core::kNoTimestamp) {
      f.packet().tx_timestamp = now + ser;  // a probe is built
    }
    if (core::TraceSink* t = core::tracer()) {
      if (f.trace_id() != 0) {
        t->complete(t->track("nic/" + name_ + "/wire"), "wire", now, ser,
                    f.seq());
      }
    }
    if (cable_ != nullptr) cable_->transmit(*this, std::move(f), ser);
    // No cable: the frame vanishes (unplugged port) and is freed.
    wire_free_at_ = now + ser;
    const bool drained =
        std::all_of(tx_rings_.begin(), tx_rings_.end(),
                    [](const auto& r) { return r->empty(); });
    if (!drained) {
      tx_fetch_at_ = wire_free_at_;
      return ser;
    }
  }
  // The rings are empty: fetch again when the source's next frame is due.
  const core::SimTime next = tx_source_ != nullptr ? tx_source_->next_emit()
                                                   : ring::TxSource::kNever;
  if (next == ring::TxSource::kNever) {
    tx_busy_ = false;
    return core::Simulator::kStopTimer;
  }
  tx_fetch_at_ = fetch_time(next);
  return tx_fetch_at_ - now;
}

std::size_t NicPort::rss_queue(const pkt::Frame& f) const {
  if (rx_rings_.size() == 1) return 0;
  const auto tuple = f.five_tuple();
  if (!tuple) return 0;  // non-IP lands on queue 0
  return static_cast<std::size_t>(tuple->hash() % rx_rings_.size());
}

void NicPort::deliver_from_wire(pkt::Frame&& f, core::SimDuration delay) {
  ring::SpscRing& ring = *rx_rings_[rss_queue(f)];
  const core::SimTime at = sim_.now() + delay + cfg_.dma_rx_latency;
  if (ring.has_timed_sink()) {
    count_arrival(f, at);
    ring.deliver(f.take(), at);
    return;
  }
  ring.arrive(std::move(f), at);  // counted when it lands; overflow => imissed
}

void NicPort::count_arrival(pkt::Frame& f, core::SimTime at) {
  ++rx_frames_;
  if (cfg_.hw_timestamping && f.probe_id() != 0 && rx_ts_hook_) {
    // 82599 stamps PTP frames at the MAC, before DMA.
    rx_ts_hook_(f.packet(), at - cfg_.dma_rx_latency);
  }
}

}  // namespace nfvsb::hw
