#include "ring/spsc_ring.h"

#include <cassert>

#include "core/metrics.h"
#include "core/trace_sink.h"

namespace nfvsb::ring {

SpscRing::SpscRing(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity) {
  if (core::MetricSink* reg = core::metrics()) {
    registry_ = reg;
    reg->add_counter(this, "ring/" + name_ + "/enqueued", &enqueued_);
    reg->add_counter(this, "ring/" + name_ + "/dequeued", &dequeued_);
    reg->add_counter(this, "ring/" + name_ + "/drops", &drops_);
    reg->add_counter(this, "ring/" + name_ + "/cleared", &cleared_);
    reg->add_queue(this, "ring/" + name_, capacity_,
                   [](const void* owner) {
                     const auto* r = static_cast<const SpscRing*>(owner);
                     return r->size() + r->sample_lag_;
                   });
  }
}

SpscRing::~SpscRing() {
  if (registry_ != nullptr) registry_->remove(this);
}

bool SpscRing::enqueue(pkt::PacketHandle p) {
  assert(!timed_sink_ && "a timed sink is fed through deliver()");
  if (sink_) {
    ++enqueued_;
    ++dequeued_;
    sink_(std::move(p));
    return true;
  }
  if (q_.size() >= capacity_) {
    ++drops_;
    if (core::TraceSink* t = core::tracer()) {
      t->instant(t->track("ring/" + name_), "drop");
    }
    return false;  // handle destructor frees the packet
  }
  const bool was_empty = q_.empty();
  if (core::TraceSink* t = core::tracer()) {
    if (p->trace_id != 0) t->async_begin(p->trace_id, name_);
  }
  q_.push_back(std::move(p));
  ++enqueued_;
  if (watcher_) watcher_(was_empty);
  return true;
}

pkt::PacketHandle SpscRing::dequeue() {
  if (q_.empty()) return {};
  pkt::PacketHandle p = q_.pop_front();
  ++dequeued_;
  if (core::TraceSink* t = core::tracer()) {
    if (p->trace_id != 0) t->async_end(p->trace_id, name_);
  }
  return p;
}

void SpscRing::set_sink(Sink s) {
  assert(q_.empty() && "install sinks before traffic starts");
  sink_ = std::move(s);
}

void SpscRing::set_sink(TimedSink s) {
  assert(q_.empty() && "install sinks before traffic starts");
  timed_sink_ = std::move(s);
}

void SpscRing::clear() {
  cleared_ += q_.size();
  if (core::TraceSink* t = core::tracer()) {
    // Close the residency slice of any traced resident, or the lifecycle
    // track would end with an unbalanced "b".
    for (std::size_t i = 0; i < q_.size(); ++i) {
      if (q_[i]->trace_id != 0) t->async_end(q_[i]->trace_id, name_);
    }
  }
  q_.clear();
}

}  // namespace nfvsb::ring
