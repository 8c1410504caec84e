#include "hw/cpu_core.h"

#include <utility>

#include "core/event_fn.h"
#include "core/metrics.h"
#include "core/simulator.h"

namespace nfvsb::hw {

CpuCore::CpuCore(core::Simulator& sim, std::string name, int numa_node)
    : sim_(sim), name_(std::move(name)), numa_node_(numa_node) {
  if (core::MetricSink* reg = core::metrics()) {
    registry_ = reg;
    // busy_time_ is a plain SimDuration, not a Counter; expose the cell
    // directly as a gauge.
    reg->add_value(this, "cpu/" + name_ + "/busy_ps", &busy_time_);
  }
}

CpuCore::~CpuCore() {
  if (registry_ != nullptr) registry_->remove(this);
}

void CpuCore::submit(core::SimDuration work, core::EventFn done) {
  queue_.push_back(Job{work, std::move(done)});
  if (!busy_) start_next();
}

void CpuCore::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Job job = queue_.pop_front();
  busy_time_ += job.work;
  current_done_ = std::move(job.done);
  sim_.post_in(job.work, [this] { finish_current(); });
}

void CpuCore::finish_current() {
  // Move out first: done() may submit follow-up work, and start_next()
  // reuses the slot for the next job.
  core::EventFn done = std::move(current_done_);
  if (done) done();
  start_next();
}

}  // namespace nfvsb::hw
