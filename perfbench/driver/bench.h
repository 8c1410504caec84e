// Shared declarations of the simulator benchmark driver.
//
// The driver times the simulator from the outside: it calls
// scenario::run_scenario point by point (one at a time, each to completion)
// and, in a traced run, times calls into each layer's public functions. It
// never goes through the campaign runner or its result cache.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace perfbench {

// --- probes.cpp --------------------------------------------------------------

/// Heap allocations (every operator new form) since process start.
std::uint64_t heap_allocs();

/// Pool buffers still outstanding when their PacketPool was destroyed,
/// summed over every pool destroyed since process start.
std::uint64_t leaked_pool_buffers();

/// Host monotonic clock, seconds.
double now_s();

/// Peak resident set of this process (VmHWM), MB.
double peak_rss_mb();

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

// --- stopwatch.cpp -----------------------------------------------------------

/// One span of the calibrated stopwatch.
struct Span {
  /// CPU seconds scaled to the reference host speed.
  double calibrated_s{0};
  /// The thread's CPU seconds, as measured (calibration samples included).
  double cpu_s{0};
};

/// Start timing the calling thread. One span at a time; the stopwatch
/// owns SIGPROF and ITIMER_PROF while it runs.
void stopwatch_start();
Span stopwatch_stop();

// --- digest.cpp --------------------------------------------------------------

/// Hash of a point's simulated outcome: gbps/mpps per direction, rx
/// packets, latency statistics and every loss/ledger counter. Any change to
/// what the simulation computes changes the digest.
std::uint64_t digest(const nfvsb::scenario::ScenarioResult& r);

/// Reference digests of one workload, one per point, in point order.
/// Empty when the file is missing or malformed.
std::vector<std::uint64_t> load_digests(const std::string& path);
bool save_digests(const std::string& path,
                  const std::vector<std::uint64_t>& digests);

// --- workloads.cpp -----------------------------------------------------------

struct Point {
  std::string label;
  nfvsb::scenario::ScenarioConfig cfg;
  /// Fig. 4a anchor (Gbps) for 64 B unidirectional p2p points; 0 = none.
  double paper_gbps{0};
};

struct Workload {
  std::string name;
  std::vector<Point> points;
};

/// The named workload; empty points when the name is unknown.
Workload make_workload(const std::string& name);

// --- layers.cpp --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer harness timings and exact counts. Sets `exact_ok` to false if
/// any count that must repeat bit-for-bit differs between two runs.
void run_layers(std::vector<Metric>& out, bool& exact_ok);

}  // namespace perfbench
