// pkt-gen model — netmap's native traffic tool, used for VALE's guest side
// because "the VM's ptnet driver is tightly coupled with host VALE ports
// and can only render optimal performance with netmap compatible tools"
// (Sec. 5.1).
//
// Unlike the in-VM MoonGen, pkt-gen is NOT paced to a virtual line rate:
// on ptnet ports it blasts as fast as the guest CPU can prepare frames
// (which is how VALE's v2v throughput exceeds 10 Gbps-equivalent in
// Fig. 4c). The TX rate limit is therefore a per-packet preparation cost,
// not a pacing clock. Like MoonGen, it sends copies of one prebuilt frame
// (pkt::FrameTemplate). It only sends: a MoonGen monitor measures what
// arrives (see traffic/moongen.h).
#pragma once

#include <cstdint>

#include "core/counter.h"
#include "core/simulator.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "ring/vhost_user_port.h"

namespace nfvsb::core {
class MetricSink;
}  // namespace nfvsb::core

namespace nfvsb::traffic {

class PktGen {
 public:
  struct Config {
    pkt::FrameSpec frame;
    /// Guest-side frame preparation cost: fixed + per-byte. Default is
    /// calibrated to ~20 Mpps at 64 B on the testbed's cores.
    double prep_fixed_ns{42};
    double prep_byte_ns{0.075};
    /// Optional pacing cap (0 = CPU-limited only); used for latency runs.
    double rate_pps{0};
    /// Inject one software-timestamped probe this often (0 = none),
    /// starting at start_tx's first frame.
    core::SimDuration probe_interval{0};
    std::uint32_t origin{2};
  };

  PktGen(core::Simulator& sim, pkt::PacketPool& pool, Config cfg);
  ~PktGen();

  PktGen(const PktGen&) = delete;
  PktGen& operator=(const PktGen&) = delete;

  void attach_tx(ring::GuestPort& port);
  void start_tx(core::SimTime at, core::SimTime until);

  [[nodiscard]] std::uint64_t tx_sent() const { return tx_sent_; }
  [[nodiscard]] std::uint64_t tx_failed() const { return tx_failed_; }

 private:
  void emit_one();
  /// Next inter-frame gap; carries the fractional-picosecond remainder in
  /// pace_frac_ so long-run throughput matches the prep-cost/pacing model
  /// exactly (see MoonGen::gap()).
  [[nodiscard]] core::SimDuration gap();

  core::Simulator& sim_;
  pkt::PacketPool& pool_;
  Config cfg_;
  pkt::FrameTemplate frame_;
  ring::GuestPort* tx_port_{nullptr};
  core::SimTime tx_until_{0};
  core::SimTime next_probe_at_{0};
  double pace_frac_{0};
  core::Counter tx_sent_;
  core::Counter tx_failed_;
  std::uint64_t seq_{0};
  std::uint64_t probe_seq_{0};
  core::MetricSink* registry_{nullptr};
};

}  // namespace nfvsb::traffic
