// TraceSink: the dependency-inversion seam for trace emission.
//
// Hot-path components (rings, NICs, switch service loops, generators) emit
// trace events — spans, instants, counters, per-packet lifecycle slices —
// through this abstract interface; the concrete Chrome-trace recorder
// (obs/trace.h) implements it at the top of the layer order. Hooks in hot
// code test tracer() for null and do nothing else.
//
// Cost discipline: a hook costs one thread-local read when no recorder is
// installed, one virtual call when one is.
#pragma once

#include <cstdint>
#include <string>

#include "core/time.h"

namespace nfvsb::core {

class TraceSink {
 public:
  /// Numeric id of a named track (Chrome "tid"); interned on first use.
  using TrackId = std::uint32_t;

  virtual ~TraceSink() = default;

  [[nodiscard]] virtual TrackId track(const std::string& name) = 0;

  /// Complete span on `t`: [start, start+dur), with a free-form numeric
  /// argument (e.g. batch size).
  virtual void complete(TrackId t, const char* name, SimTime start,
                        SimDuration dur, std::uint64_t arg) = 0;
  /// Thread-scoped instant on `t` at `at` (kNoTimestamp: the current
  /// simulation time). A ring passes a frame's arrival time, which can be
  /// earlier than now when a wire source or a pulled generator put the
  /// frame in at a later read.
  virtual void instant(TrackId t, const char* name,
                       SimTime at = kNoTimestamp) = 0;
  /// Counter sample at the current simulation time.
  virtual void counter(const std::string& name, std::uint64_t value) = 0;

  /// Packet-lifecycle slices: one "b"/"e" pair per stage the sampled packet
  /// resides in, all grouped under its trace id. The slice begins at `at`
  /// (kNoTimestamp: now) and ends at the current simulation time.
  virtual void async_begin(std::uint32_t trace_id, const std::string& stage,
                           SimTime at = kNoTimestamp) = 0;
  virtual void async_end(std::uint32_t trace_id,
                         const std::string& stage) = 0;

  /// True when the packet with generator sequence `seq` should be followed.
  [[nodiscard]] virtual bool sample_hit(std::uint64_t seq) const = 0;
  /// Fresh non-zero per-packet trace id.
  [[nodiscard]] virtual std::uint32_t next_packet_id() = 0;
};

namespace internal {
/// Thread-local active sink (campaign workers trace independently).
extern thread_local TraceSink* g_tracer;
}  // namespace internal

[[nodiscard]] inline TraceSink* tracer() { return internal::g_tracer; }

/// Installs a sink as the thread's active tracer for this scope, restoring
/// the previous one (usually null) on destruction.
class TraceInstall {
 public:
  explicit TraceInstall(TraceSink* t);
  ~TraceInstall();
  TraceInstall(const TraceInstall&) = delete;
  TraceInstall& operator=(const TraceInstall&) = delete;

 private:
  TraceSink* prev_;
};

}  // namespace nfvsb::core
