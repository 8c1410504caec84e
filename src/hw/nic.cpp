#include "hw/nic.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/event_fn.h"
#include "core/event_queue.h"
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
      for (auto& r : nic->rx_rings_) r->catch_up();
      nic->pull_source();
    });
  }
}

NicPort::~NicPort() {
  // The source detaches first (stop_wire); the peer may be gone by now.
  if (wire_wake_ != core::EventQueue::kInvalidEvent) sim_.cancel(wire_wake_);
  sim_.remove_lane(tx_lane_);
  if (registry_ != nullptr) registry_->remove(this);
}

std::uint64_t NicPort::imissed() const {
  std::uint64_t n = 0;
  for (const auto& r : rx_rings_) n += r->drops();
  return n;
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

void NicPort::detach_tx_source() {
  stop_wire();
  tx_source_ = nullptr;
}

core::SimTime NicPort::fetch_time(core::SimTime ready) const {
  // While the last frame is still on the wire this is the same busy period:
  // the fetch was pipelined behind serialization, so the frame leaves as
  // soon as the wire frees. On an idle wire the first frame of a new busy
  // period pays the descriptor/DMA fetch latency.
  return wire_free_at_ > ready ? wire_free_at_ : ready + cfg_.dma_tx_latency;
}

void NicPort::on_tx_enqueue() {
  assert(!wired() && "a wire source's port carries no other traffic");
  arm_fetch(fetch_time(sim_.now()));
}

void NicPort::wake_tx() {
  if (start_wire()) return;
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
  if (tx_source_ == nullptr || wired()) return;
  while (sim_.reached(tx_source_->next_emit(), source_order_)) {
    tx_source_->emit_next();
    source_order_ = sim_.reserve_order();
  }
}

core::SimDuration NicPort::serialize_step() {
  if (wired()) {
    // The wire source's lane firing: the next fetch's instant is past, so
    // its frame's wake can take its late key now.
    tx_busy_ = false;
    arm_wire_wake();
    return core::Simulator::kStopTimer;
  }
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
  const std::optional<pkt::FiveTuple> tuple = f.five_tuple();
  if (!tuple) return 0;  // non-IP lands on queue 0
  return static_cast<std::size_t>(tuple->hash() % rx_rings_.size());
}

void NicPort::deliver_from_wire(pkt::Frame&& f, core::SimDuration delay) {
  const core::SimTime at = sim_.now() + delay + cfg_.dma_rx_latency;
  if (rx_rings_[rss_queue(f)]->has_timed_sink()) {
    land(std::move(f), at);
    return;
  }
  // The frame's arrival event, keyed as the frame leaves the sender.
  auto arrival = [this, f = std::move(f)]() mutable {
    land(std::move(f), sim_.now());
  };
  static_assert(sizeof(arrival) <= core::EventFn::kInlineBytes,
                "an arrival event must not allocate");
  sim_.post_at(at, std::move(arrival));
}

void NicPort::land(pkt::Frame&& f, core::SimTime at) {
  ring::SpscRing& ring = *rx_rings_[rss_queue(f)];
  ++rx_frames_;
  if (cfg_.hw_timestamping && f.probe_id() != 0 && rx_ts_hook_) {
    // 82599 stamps PTP frames at the MAC, before DMA (a probe is built).
    rx_ts_hook_(f.packet(), at - cfg_.dma_rx_latency);
  }
  // A frame that fits is DMA'd into a buffer; with no free descriptor, or
  // no buffer to refill one with, the NIC drops it at the MAC (imissed)
  // and it is never built.
  if (!ring.has_room() || !f.reserve()) {
    ring.count_drop(at);
    return;
  }
  if (ring.has_timed_sink()) {
    ring.deliver(f.take(), at);
    return;
  }
  f.build();
  ring.land(std::move(f), at);
}

bool NicPort::start_wire() {
  // What keeps one fetch per frame (see nic.h).
  if (core::tracer() != nullptr ||
      (registry_ != nullptr && registry_->depths_sampled()) ||
      cable_ == nullptr || tx_source_->recipe() == nullptr) {
    return false;
  }
  NicPort& to = cable_->peer(*this);
  for (const auto& r : to.rx_rings_) {
    if (!r->buffered()) return false;
  }
  wire_to_ = &to;
  // Allocated at start, not at the first emit mid-run, where this small
  // block outlives the run's transient ones and pinned heap: perfbench's
  // latency_paced peak RSS read 5% above the parent's with it there.
  backlog_.reserve(core::Fifo<pkt::Frame>::kMinCapacity);
  wire_ser_ = cfg_.rate.serialization_time(
      tx_source_->recipe()->frame_bytes());
  wire_delay_ = wire_ser_ + cable_->propagation() + to.cfg_.dma_rx_latency;
  wire_rank_ = sim_.add_late_producer(wire_delay_);
  for (auto& r : to.rx_rings_) r->feed_from(this);
  tx_rings_[0]->feed_from(this);  // its counters are the wire's
  // The source's start reserves its first frame's key (key_pulled_in_ 0),
  // and the first fetch's lane key comes after it.
  const core::SimTime next = tx_source_->next_emit();
  fetch_at_ = next == ring::TxSource::kNever ? next : fetch_time(next);
  sync_wire_wake();
  return true;
}

void NicPort::stop_wire() {
  if (!wired()) return;
  for (auto& r : wire_to_->rx_rings_) r->feed_from(nullptr);
  tx_rings_[0]->feed_from(nullptr);
  if (wire_wake_ != core::EventQueue::kInvalidEvent) sim_.cancel(wire_wake_);
  wire_wake_ = core::EventQueue::kInvalidEvent;
  sim_.stop_lane(tx_lane_);
  tx_busy_ = false;
  while (!backlog_.empty()) (void)backlog_.pop_front();
  fetch_at_ = ring::TxSource::kNever;
  wire_to_ = nullptr;
}

bool NicPort::wire_accept(pkt::Frame&& f) {
  ring::SpscRing& tx = *tx_rings_[0];
  if (backlog_.size() >= tx.capacity()) {
    tx.count_bypass(0, 0, 1);
    return false;
  }
  backlog_.push_back(std::move(f));
  tx.count_bypass(1, 0, 0);
  return true;
}

pkt::Frame NicPort::fetch() {
  const core::SimTime now = fetch_at_;
  // What serialize_step's pull_source would enqueue at this fetch: a frame
  // due at its very instant is owed when its order key comes before the
  // fetch's, i.e. when it was reserved at an earlier fetch (or the start).
  for (core::SimTime t = tx_source_->next_emit();
       t < now || (t == now && key_pulled_in_ <= fetches_);
       t = tx_source_->next_emit()) {
    tx_source_->emit_next();
    key_pulled_in_ = fetches_ + 1;
  }
  ++fetches_;
  if (backlog_.empty()) {
    const core::SimTime next = tx_source_->next_emit();
    fetch_at_ = next == ring::TxSource::kNever ? next : fetch_time(next);
    return {};
  }
  pkt::Frame f = backlog_.pop_front();
  tx_rings_[0]->count_bypass(0, 1, 0);
  ++tx_frames_;
  if (cfg_.hw_timestamping && f.probe_id() != 0 &&
      f.packet().tx_timestamp == core::kNoTimestamp) {
    f.packet().tx_timestamp = now + wire_ser_;  // a probe is built
  }
  wire_free_at_ = now + wire_ser_;
  if (!backlog_.empty()) {
    fetch_at_ = wire_free_at_;
  } else {
    const core::SimTime next = tx_source_->next_emit();
    fetch_at_ = next == ring::TxSource::kNever ? next : fetch_time(next);
  }
  return f;
}

void NicPort::catch_up() {
  // Fetch and land, in order, every frame that has arrived by now; a frame
  // arriving at this very instant has once a key reserved after its
  // fetch's instant is running (core::Simulator::late_order). A landing
  // may wake a consumer that reads the rings again from inside the loop:
  // each fetch is complete before its frame lands.
  while (fetch_at_ != ring::TxSource::kNever &&
         sim_.reached_late(fetch_at_ + wire_delay_, fetch_at_, wire_rank_)) {
    const core::SimTime at = fetch_at_ + wire_delay_;
    if (pkt::Frame f = fetch()) wire_to_->land(std::move(f), at);
  }
  sync_wire_wake();
}

void NicPort::consumer_changed() { catch_up(); }

void NicPort::sync_wire_wake() {
  bool idle = false;
  for (const auto& r : wire_to_->rx_rings_) idle = idle || !r->consumer_busy();
  const bool wanted = idle && fetch_at_ != ring::TxSource::kNever;
  const bool armed =
      wire_wake_ != core::EventQueue::kInvalidEvent || tx_busy_;
  if (armed == wanted) return;  // an armed wake is always for the next frame
  if (!armed) {
    arm_wire_wake();
    return;
  }
  if (tx_busy_) {
    sim_.stop_lane(tx_lane_);
    tx_busy_ = false;
  } else {
    sim_.cancel(wire_wake_);
    wire_wake_ = core::EventQueue::kInvalidEvent;
  }
}

void NicPort::arm_wire_wake() {
  if (fetch_at_ >= sim_.now()) {
    // The fetch's key is placed at the end of its instant: come back just
    // after it.
    tx_busy_ = true;
    sim_.arm_lane(tx_lane_, fetch_at_ + 1);
    return;
  }
  // Every read lands what has arrived, so the next frame's arrival is
  // still ahead.
  wire_wake_ = sim_.schedule_reserved(
      fetch_at_ + wire_delay_, sim_.late_order(fetch_at_, wire_rank_), [this] {
        wire_wake_ = core::EventQueue::kInvalidEvent;
        catch_up();
      });
}

}  // namespace nfvsb::hw
