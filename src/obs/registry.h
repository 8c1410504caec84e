// Hierarchical counter registry: the name plane of the observability layer.
//
// Registry is the concrete core::MetricSink (see core/metrics.h for the
// installation seam). Components register their core::Counter cells
// (and their queues' depth probes) once at construction under
// slash-separated paths such as "ring/vpp:nic1.rx0/drops" or
// "switch/vpp/rounds", and deregister in their destructors. A Registry
// never owns the cells — it stores (owner, path, pointer) rows, so reads
// are a pointer chase and registration cost is paid only at wiring time,
// never on the data path.
//
// Install with core::MetricsScope: a scenario that wants observation
// creates a Registry and installs it for the duration of testbed
// construction; every component checks core::metrics() in its constructor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/counter.h"
#include "core/metrics.h"

namespace nfvsb::obs {

class Registry final : public core::MetricSink {
 public:
  using DepthFn = core::MetricSink::DepthFn;
  using SyncFn = core::MetricSink::SyncFn;

  struct Sync {
    void* owner;
    SyncFn fn;
  };
  struct Queue {
    const void* owner;
    std::string path;
    std::size_t capacity;
    DepthFn depth;
  };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register a cell under `path`. Duplicate paths are disambiguated with a
  /// "#2", "#3"... suffix (stable: registration order is wiring order,
  /// which is deterministic per scenario).
  void add_counter(const void* owner, std::string path,
                   const core::Counter* c) override;
  /// Raw signed cell (e.g. a SimDuration member) exposed as a gauge.
  void add_value(const void* owner, std::string path,
                 const std::int64_t* v) override;

  /// Register a queue for depth sampling (see obs/sampler.h).
  void add_queue(const void* owner, std::string path, std::size_t capacity,
                 DepthFn depth) override;
  void add_sync(void* owner, SyncFn sync) override;

  /// Drop every row registered by `owner` (called from owner destructors,
  /// so a Registry may outlive any subset of its components).
  void remove(const void* owner) override;

  [[nodiscard]] const std::vector<Queue>& queues() const { return queues_; }
  [[nodiscard]] const std::vector<Sync>& syncs() const { return syncs_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// All registered cells as (path, value), sorted by path — the
  /// deterministic order campaign JSON and tests rely on.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> snapshot()
      const;

 private:
  struct Entry {
    const void* owner;
    std::string path;
    const core::Counter* counter;  // exactly one of these two is non-null
    const std::int64_t* raw;
  };

  [[nodiscard]] std::string unique_path(std::string path) const;

  std::vector<Entry> entries_;
  std::vector<Queue> queues_;
  std::vector<Sync> syncs_;
};

}  // namespace nfvsb::obs
