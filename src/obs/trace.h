// Chrome-trace / Perfetto recorder over *simulated* time.
//
// TraceRecorder is the concrete core::TraceSink (see core/trace_sink.h for
// the hook seam and its cost). Events are recorded in
// simulation picoseconds and emitted as Chrome JSON (ts/dur in
// microseconds, formatted exactly from integer picoseconds, so output is
// bit-deterministic). Events are written in a canonical order, by time and
// then by their other fields, so a trace depends only on the events
// recorded, not on the order the hooks ran in. Load the file in
// ui.perfetto.dev or chrome://tracing.
// Emitted shapes:
//  * complete ("X") spans on named tracks — switch service rounds, NIC wire
//    serialization;
//  * instants ("i") — ring drops;
//  * counters ("C") — sampled queue depths;
//  * async begin/end ("b"/"e") pairs keyed by a per-packet trace id —
//    1-in-N sampled packets followed hop-by-hop, one slice per ring
//    residency.
//
// Install with core::TraceInstall; hooks in hot code test core::tracer()
// for null and do nothing else. The recorder class itself stays compiled
// even with tracing off (cold code, used by tests and tools).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/time.h"
#include "core/trace_sink.h"

namespace nfvsb::core {
class Simulator;
}  // namespace nfvsb::core

namespace nfvsb::obs {

class TraceRecorder final : public core::TraceSink {
 public:
  struct Config {
    /// Destination file written by the destructor ("" = caller exports via
    /// to_json()/write_json()).
    std::string path;
    /// Follow every Nth generated packet hop-by-hop (0 = none).
    std::uint32_t packet_sample_every{64};
  };

  using TrackId = core::TraceSink::TrackId;

  TraceRecorder(core::Simulator& sim, Config cfg);
  ~TraceRecorder() override;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  [[nodiscard]] TrackId track(const std::string& name) override;

  void complete(TrackId t, const char* name, core::SimTime start,
                core::SimDuration dur, std::uint64_t arg) override;
  void instant(TrackId t, const char* name,
               core::SimTime at = core::kNoTimestamp) override;
  void counter(const std::string& name, std::uint64_t value) override;

  void async_begin(std::uint32_t trace_id, const std::string& stage,
                   core::SimTime at = core::kNoTimestamp) override;
  void async_end(std::uint32_t trace_id, const std::string& stage) override;

  [[nodiscard]] bool sample_hit(std::uint64_t seq) const override {
    return cfg_.packet_sample_every > 0 &&
           seq % cfg_.packet_sample_every == 0;
  }
  [[nodiscard]] std::uint32_t next_packet_id() override {
    return ++last_packet_id_;
  }

  struct Event {
    char ph;            // 'X', 'i', 'C', 'b', 'e'
    TrackId track;      // 'X'/'i' only
    std::string name;   // slice / counter name
    core::SimTime ts;   // picoseconds
    core::SimDuration dur;  // 'X' only
    std::uint64_t id;   // 'b'/'e' only (packet trace id)
    std::uint64_t arg;  // 'X' batch size / 'C' value
  };

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t num_events() const { return events_.size(); }

  [[nodiscard]] std::string to_json() const;
  /// False when the file cannot be opened.
  bool write_json(const std::string& path) const;

 private:
  /// `at`, or now for kNoTimestamp.
  [[nodiscard]] core::SimTime stamp(core::SimTime at) const;

  core::Simulator& sim_;
  Config cfg_;
  std::map<std::string, TrackId> tracks_;  // ordered: deterministic metadata
  std::vector<Event> events_;
  std::uint32_t last_packet_id_{0};
};

}  // namespace nfvsb::obs
