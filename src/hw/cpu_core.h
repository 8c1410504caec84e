// Single CPU core as a serialized work server.
//
// The paper pins each SUT data plane to one isolated core ("software
// switches are always deployed on a single core on NUMA node 0 to ensure a
// fair comparison"); VMs get their own vcpus. A CpuCore serializes the work
// submitted to it, exposes utilization, and is the choke point from which
// all throughput limits emerge.
#pragma once

#include <cstdint>
#include <string>

#include "core/event_fn.h"
#include "core/fifo.h"
#include "core/simulator.h"
#include "core/time.h"

namespace nfvsb::core {
class MetricSink;
}  // namespace nfvsb::core

namespace nfvsb::hw {

class CpuCore {
 public:
  CpuCore(core::Simulator& sim, std::string name, int numa_node = 0);
  ~CpuCore();

  CpuCore(const CpuCore&) = delete;
  CpuCore& operator=(const CpuCore&) = delete;

  /// Run `work` simulated time of computation as soon as the core frees up,
  /// then invoke `done`. FIFO among submissions.
  void submit(core::SimDuration work, core::EventFn done);

  [[nodiscard]] bool idle() const { return !busy_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int numa_node() const { return numa_node_; }

  /// Busy time / wall time since construction (or last reset_stats()).
  [[nodiscard]] double utilization() const;
  [[nodiscard]] core::SimDuration busy_time() const { return busy_time_; }

  void reset_stats();

 private:
  void start_next();
  void finish_current();

  struct Job {
    core::SimDuration work{0};
    core::EventFn done;
  };

  core::Simulator& sim_;
  std::string name_;
  int numa_node_;
  bool busy_{false};
  core::Fifo<Job> queue_;
  /// Completion of the in-flight job. One slot is enough (the core
  /// serializes), and it keeps the completion event's capture down to
  /// [this] — re-wrapping the EventFn in a closure would overflow the
  /// inline buffer and heap-allocate per job.
  core::EventFn current_done_;
  core::SimDuration busy_time_{0};
  core::SimTime stats_since_{0};
  core::MetricSink* registry_{nullptr};
};

}  // namespace nfvsb::hw
