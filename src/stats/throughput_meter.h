// Receive-side throughput meter, mirroring what MoonGen's RX side (and, in
// the paper, FloWatcher-DPDK) reports: packets and wire-bytes over a
// measurement window, with an optional warm-up period that is excluded (JIT
// warm-up, ARP, ring fill).
//
// Window convention is half-open [open_at, close_at): a packet at exactly
// close_at belongs to the NEXT window, and window_duration is close_at -
// open_at with no fencepost. The closed state is an explicit flag — t=0 is
// a valid close time (a meter can open and close before any traffic).
//
// Packets are passed their arrival time, which a NIC monitor learns ahead
// of the simulation clock. Such a meter must know where its run stops
// before the run (stop_at): a packet arriving after that instant can reach
// it before the run gets there.
#pragma once

#include <cstdint>
#include <limits>

#include "core/time.h"
#include "core/units.h"

namespace nfvsb::stats {

class ThroughputMeter {
 public:
  /// Counting starts at `open_at` (earlier packets are ignored) and stops
  /// at the close_at set by close() (exclusive).
  explicit ThroughputMeter(core::SimTime open_at = 0) : open_at_(open_at) {}

  void on_packet(core::SimTime now, std::uint32_t frame_bytes) {
    if (now < open_at_ || now > stop_at_) return;
    if (closed_ && now >= close_at_) return;
    ++packets_;
    wire_bytes_ += frame_bytes + core::kWireOverheadBytes;
    last_seen_ = now;
  }

  /// Count no packet arriving after `t`, the time the run is stopped at
  /// before close(t): a packet at exactly `t` still counts, because the
  /// run executes everything at `t` before the meter closes.
  void stop_at(core::SimTime t) { stop_at_ = t; }

  /// Freeze the window at `now` for rate computation ([open_at, now)).
  void close(core::SimTime now) {
    close_at_ = now;
    closed_ = true;
  }

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }

  [[nodiscard]] double pps() const {
    const auto window = window_duration();
    if (window <= 0) return 0.0;
    return static_cast<double>(packets_) / core::to_sec(window);
  }

  /// Wire-occupancy Gbps (paper convention: +20 B per frame).
  [[nodiscard]] double gbps() const {
    const auto window = window_duration();
    if (window <= 0) return 0.0;
    return static_cast<double>(wire_bytes_) * 8.0 / core::to_sec(window) / 1e9;
  }

 private:
  [[nodiscard]] core::SimDuration window_duration() const {
    // Open meters report over [open_at, last packet seen]; closed meters
    // over the frozen [open_at, close_at) window.
    const core::SimTime end = closed_ ? close_at_ : last_seen_;
    if (end == core::kNoTimestamp) return 0;
    return end - open_at_;
  }

  static constexpr core::SimTime kNoStop =
      std::numeric_limits<core::SimTime>::max();

  std::uint64_t packets_{0};
  std::uint64_t wire_bytes_{0};
  core::SimTime open_at_{0};
  core::SimTime stop_at_{kNoStop};
  core::SimTime close_at_{0};
  bool closed_{false};
  core::SimTime last_seen_{core::kNoTimestamp};
};

}  // namespace nfvsb::stats
