#include "obs/sampler.h"

#include "core/simulator.h"
#include "core/trace_sink.h"

namespace nfvsb::obs {

QueueSampler::QueueSampler(core::Simulator& sim, const Registry& reg,
                           core::SimDuration period, core::SimTime stop_at)
    : sim_(sim),
      reg_(reg),
      period_(period),
      stop_at_(stop_at) {
  sim_.post_in(period_, [this] { tick(); });
}

void QueueSampler::tick() {
  if (sim_.now() > stop_at_) return;
  sample();
  sim_.post_in(period_, [this] { tick(); });
}

void QueueSampler::sample() {
  ++samples_;
  for (const Registry::Sync& s : reg_.syncs()) s.fn(s.owner);
  for (const Registry::Queue& q : reg_.queues()) {
    const std::size_t depth = q.depth(q.owner);
    hists_[q.path].add(static_cast<core::SimDuration>(depth));
    if (core::TraceSink* t = core::tracer()) t->counter(q.path, depth);
  }
}

void QueueSampler::append_summary(
    std::vector<std::pair<std::string, std::uint64_t>>& out) const {
  for (const auto& [path, h] : hists_) {
    out.emplace_back(path + "/depth_samples", h.count());
    out.emplace_back(path + "/depth_p99",
                     static_cast<std::uint64_t>(h.p99()));
    out.emplace_back(path + "/depth_max",
                     static_cast<std::uint64_t>(h.max_value()));
  }
}

}  // namespace nfvsb::obs
