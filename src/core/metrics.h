// MetricSink: the dependency-inversion seam between data-path components
// and the observability layer.
//
// Rings, NICs, pools, switches and generators publish their Counter
// cells (and their queues' depth probes) by registering them with the
// thread-installed sink at construction time — they depend only on this
// abstract interface, never on obs::Registry, so the layer order in
// tools/nfvsb-lint/layers.def holds: obs sits at the top and implements
// the sink; everything below core-registers blindly.
//
// Installation is scoped and thread-local: a scenario that wants
// observation creates an obs::Registry and installs it with MetricsScope
// for the duration of testbed construction; every component checks
// metrics() in its constructor and keeps the returned pointer only to
// deregister in its destructor. Campaign workers each build their own Env,
// so per-thread installation keeps the 8-thread runner race-free with zero
// atomics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/counter.h"
#include "core/time.h"

namespace nfvsb::core {

class MetricSink {
 public:
  /// Occupancy probe for a registered queue (plain function pointer: the
  /// sampler calls it with the registered owner, no closure state needed).
  using DepthFn = std::size_t (*)(const void* owner);
  /// Brings an owner's lazily filled queues up to date before their depths
  /// are read: what a read at this event's (time, order key) would see
  /// (see ring/tx_source.h).
  using SyncFn = void (*)(void* owner);

  virtual ~MetricSink() = default;

  /// Register a cell under a slash-separated path such as
  /// "ring/vpp:nic1.rx0/drops". The sink never owns the cell; the caller
  /// must remove(owner) before the cell dies.
  virtual void add_counter(const void* owner, std::string path,
                           const Counter* c) = 0;
  /// Raw signed cell (e.g. a SimDuration member) exposed as a gauge.
  virtual void add_value(const void* owner, std::string path,
                         const std::int64_t* v) = 0;

  /// Register a queue for depth sampling (see obs/sampler.h).
  virtual void add_queue(const void* owner, std::string path,
                         std::size_t capacity, DepthFn depth) = 0;
  /// Register a hook the sampler calls before every round of depth reads.
  virtual void add_sync(void* owner, SyncFn sync) = 0;

  /// Drop every row registered by `owner` (called from owner destructors,
  /// so a sink may outlive any subset of its components).
  virtual void remove(const void* owner) = 0;
};

/// The sink components register against at construction time
/// (thread-local; null when no observation is requested).
[[nodiscard]] MetricSink* metrics();

/// Installs `s` as metrics() for this scope, restoring the previous sink
/// (usually null) on destruction. Null `s` masks any outer sink, so nested
/// scenario runs never cross-register.
class MetricsScope {
 public:
  explicit MetricsScope(MetricSink* s);
  ~MetricsScope();
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  MetricSink* prev_;
};

}  // namespace nfvsb::core
