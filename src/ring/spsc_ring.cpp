#include "ring/spsc_ring.h"

#include <cassert>

#include "core/event_queue.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "core/trace_sink.h"

namespace nfvsb::ring {

SpscRing::SpscRing(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity) {
  if (core::MetricSink* reg = core::metrics()) {
    registry_ = reg;
    reg->add_counter(this, "ring/" + name_ + "/enqueued", &enqueued_);
    reg->add_counter(this, "ring/" + name_ + "/dequeued", &dequeued_);
    reg->add_counter(this, "ring/" + name_ + "/drops", &drops_);
    reg->add_queue(this, "ring/" + name_, capacity_,
                   [](const void* owner) {
                     // Wire-fed rings are brought up to date by their
                     // NIC's sampler hook before this read.
                     return static_cast<const SpscRing*>(owner)->q_.size();
                   });
  }
}

SpscRing::~SpscRing() {
  if (registry_ != nullptr) registry_->remove(this);
  if (wake_ != core::EventQueue::kInvalidEvent) sim_->cancel(wake_);
}

bool SpscRing::enqueue(pkt::Frame&& f) {
  assert(!timed_sink_ && "a timed sink is fed through deliver()");
  catch_up();
  return push(std::move(f), pulling_at_);
}

bool SpscRing::push(pkt::Frame&& f, core::SimTime at) {
  if (sink_) {
    ++enqueued_;
    ++dequeued_;
    detail::ring_ops += 2;
    sink_(f.take());
    return true;
  }
  if (q_.size() >= capacity_) {
    count_drop(at);
    return false;  // the frame's destructor frees it or its reservation
  }
  const bool was_empty = q_.empty();
  if (core::TraceSink* t = core::tracer()) {
    if (f.trace_id() != 0) t->async_begin(f.trace_id(), name_, at);
  }
  q_.push_back(std::move(f));
  ++enqueued_;
  ++detail::ring_ops;
  if (was_empty) ++kicks_;
  if (watcher_) {
    arriving_at_ = at;
    watcher_(was_empty);
  }
  return true;
}

void SpscRing::count_drop(core::SimTime at) {
  ++drops_;
  if (core::TraceSink* t = core::tracer()) {
    t->instant(t->track("ring/" + name_), "drop", at);
  }
}

void SpscRing::feed_from_source(core::Simulator& sim, TxSource& src) {
  assert(sim_ == nullptr && source_ == nullptr && "one producer per ring");
  sim_ = &sim;
  source_ = &src;
  if (registry_ != nullptr) {
    // The queue sampler's depth reads see what per-frame enqueues gave.
    registry_->add_sync(this, [](void* owner) {
      static_cast<SpscRing*>(owner)->catch_up();
    });
  }
}

void SpscRing::wake_source() {
  assert(wake_ == core::EventQueue::kInvalidEvent && "a source starts once");
  source_order_ = sim_->reserve_order();
  sync_wake();
}

void SpscRing::detach_source() {
  source_ = nullptr;
  sync_wake();
}

void SpscRing::pull_source() {
  // The source enqueues through its port, and that enqueue is a read of
  // this ring: pulling_ stops it from pulling again. Each frame's
  // successor takes its order key once the frame is in, after whatever its
  // enqueue scheduled, as its pacing event would.
  if (pulling_ || !sim_->reached(source_->next_emit(), source_order_)) {
    return;
  }
  pulling_ = true;
  for (core::SimTime t = source_->next_emit();
       sim_->reached(t, source_order_); t = source_->next_emit()) {
    pulling_at_ = t;
    source_->emit_next();
    source_order_ = sim_->reserve_order();
  }
  pulling_at_ = core::kNoTimestamp;
  pulling_ = false;
  sync_wake();
}

void SpscRing::sync_wake() {
  // A pull syncs once it is done: the source's head moves within it.
  if (pulling_) return;
  const bool armed = wake_ != core::EventQueue::kInvalidEvent;
  // A packet tracer hands out trace ids as generators emit, so while one
  // is installed each pulled frame goes in at its own instant, as it did
  // with a pacing event per frame, busy consumer or not.
  const bool wanted = source_ != nullptr &&
                      source_->next_emit() != TxSource::kNever &&
                      (!consumer_busy_ || core::tracer() != nullptr);
  if (armed == wanted) return;  // an armed wake is always for the head
  if (armed) {
    sim_->cancel(wake_);
    wake_ = core::EventQueue::kInvalidEvent;
    return;
  }
  // Every read puts in what is due, and a consumer reads its rings before
  // it goes idle, so the head's place in time is still ahead.
  wake_ = sim_->schedule_reserved(source_->next_emit(), source_order_, [this] {
    wake_ = core::EventQueue::kInvalidEvent;
    catch_up();
  });
}

pkt::PacketHandle SpscRing::dequeue() {
  pkt::Frame f = dequeue_frame();
  return f ? f.take() : pkt::PacketHandle{};
}

pkt::Frame SpscRing::dequeue_frame() {
  catch_up();
  if (q_.empty()) return {};
  pkt::Frame f = q_.pop_front();
  ++dequeued_;
  ++detail::ring_ops;
  if (core::TraceSink* t = core::tracer()) {
    if (f.trace_id() != 0) t->async_end(f.trace_id(), name_);
  }
  return f;
}

void SpscRing::set_sink(Sink s) {
  assert(q_.empty() && "install sinks before traffic starts");
  sink_ = std::move(s);
}

void SpscRing::set_sink(TimedSink s) {
  assert(q_.empty() && "install sinks before traffic starts");
  timed_sink_ = std::move(s);
}

}  // namespace nfvsb::ring
