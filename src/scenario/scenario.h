// The paper's four test scenarios (Sec. 4): p2p, p2v, v2v, loopback.
//
// Each run builds a fresh simulated testbed (Fig. 3), deploys the SUT on a
// single isolated NUMA-0 core, wires the scenario's data path with the
// switch-specific configuration interface (ovs-ofctl / VPP CLI / Click
// config / bess script / config.app / vale-ctl / P4 tables), generates
// traffic from NUMA node 1 (or inside VMs), and reports throughput in the
// paper's wire-occupancy Gbps plus PTP-probe latency statistics. Every
// kind is a topology of the same parts, driven and accounted by one path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/time.h"
#include "switches/registry.h"
#include "switches/switch_base.h"

namespace nfvsb::scenario {

enum class Kind : std::uint8_t { kP2p, kP2v, kV2v, kLoopback };

const char* to_string(Kind k);

struct ScenarioConfig {
  Kind kind{Kind::kP2p};
  switches::SwitchType sut{switches::SwitchType::kVpp};
  std::uint32_t frame_bytes{64};
  /// Add the mirror direction (not in v2v latency mode).
  bool bidirectional{false};
  /// loopback only: number of chained VNF VMs (1..5).
  int chain_length{1};
  /// p2v only: send VM -> NIC instead of NIC -> VM (the paper's "reversed"
  /// probe that exposed VPP's vhost RX penalty).
  bool reverse{false};
  /// Offered rate per direction in pps; 0 = saturate.
  double rate_pps{0};
  /// p2p only: distinct flows in the generated traffic (1 = the paper's
  /// single flow).
  std::uint32_t num_flows{1};
  /// p2p only: data-plane workers, each pinned to its own core and serving
  /// its own RSS queue pair (1 = the paper's single-core rule; >1 explores
  /// the multi-core future work of Sec. 6 — see bench/ablation_multicore).
  int sut_workers{1};
  /// Inject latency probes this often (0 = throughput-only run); not on
  /// p2v. On v2v it selects the latency mode of Table 4.
  core::SimDuration probe_interval{0};
  /// Ablation hook: invoked on every SUT instance right after
  /// construction (before wiring/start) — mutate the cost model, tables,
  /// etc. Used by bench/ablation_*.
  std::function<void(switches::SwitchBase&)> tune_sut;

  /// Override the NIC descriptor ring depth (0 = per-switch default), at
  /// most 4096 (Table 2's deepest ring); not on v2v, whose path has no NIC.
  std::size_t nic_ring_depth{0};

  /// l2fwd VNF TX drain timeout (non-VALE loopback and v2v latency, the
  /// kinds that run l2fwd); 0 = DPDK's 100 us default.
  core::SimDuration l2fwd_drain{0};

  /// non-VALE loopback: host the VNFs in containers instead of VMs (the
  /// paper's future work; virtio-user crossings are cheaper than vhost+QEMU
  /// ones).
  bool containers{false};

  /// Meters and probes open after the warm-up (JIT traces, caches, ARP).
  core::SimDuration warmup{core::from_ms(10)};
  /// Measurement window length.
  core::SimDuration measure{core::from_ms(25)};
  std::uint64_t seed{0x5eed};

  // --- Observability (all off by default; observers never touch the data
  // --- path, so an observed run measures identically to an unobserved one).
  /// Collect the component counter registry into ScenarioResult::counters.
  bool observe{false};
  /// Snapshot every registered ring's occupancy this often (0 = off).
  /// Implies counter collection. Summaries land in counters as
  /// "<ring>/depth_{samples,p99,max}".
  core::SimDuration queue_sample_period{0};
  /// Write a Chrome-trace/Perfetto JSON of the run here (empty = off).
  std::string trace_path;
  /// Trace every Nth generated packet's lifecycle (0 = no packet tracks).
  std::uint32_t trace_packet_sample{64};
};

struct DirectionResult {
  double gbps{0};
  double mpps{0};
  std::uint64_t rx_packets{0};
};

struct ScenarioResult {
  /// Set when the configuration cannot be built (e.g. BESS with > 3 VMs,
  /// the paper's footnote 5). No measurements in that case.
  std::optional<std::string> skipped;

  DirectionResult fwd;
  DirectionResult rev;
  [[nodiscard]] double gbps_total() const { return fwd.gbps + rev.gbps; }
  [[nodiscard]] double mpps_total() const { return fwd.mpps + rev.mpps; }

  // Latency over the forward direction's probes, in microseconds.
  std::uint64_t lat_samples{0};
  double lat_avg_us{0};
  double lat_std_us{0};
  double lat_median_us{0};
  double lat_p99_us{0};
  double lat_min_us{0};
  double lat_max_us{0};

  // Loss accounting (where packets died).
  std::uint64_t nic_imissed{0};    ///< NIC RX ring overflow
  std::uint64_t sut_wasted_work{0};///< processed then dropped at full ring
  std::uint64_t sut_discards{0};   ///< datapath decisions (no route etc.)
  // Losses inside chained VNFs (loopback l2fwd / guest VALE instances),
  // kept separate from the SUT's own counters so figure columns that
  // report "wasted work at the SUT" keep their meaning.
  std::uint64_t vnf_wasted_work{0};///< VNF processed then dropped
  std::uint64_t vnf_discards{0};   ///< VNF datapath discards

  // Whole-run conservation bookkeeping (every scenario kind fills these;
  // counts cover the ENTIRE run, not just the measurement window): every
  // offered packet is either delivered to the terminal monitor or
  // accounted to a specific loss site.
  std::uint64_t offered_packets{0};    ///< generator frames onto the wire
  std::uint64_t delivered_packets{0};  ///< frames at the terminal monitors
  std::uint64_t gen_tx_failures{0};    ///< generator-side TX ring drops
  /// Generator frames never sent because the packet pool was dry (not in
  /// offered_packets). Serialized only when nonzero.
  std::uint64_t gen_pool_exhausted{0};
  /// Always 0: every run drains before it accounts, so no frame is left
  /// in a ring. Kept only because perfbench's result digest reads it; it
  /// goes at the next benchmark change.
  std::uint64_t cleared_packets{0};

  /// Packets accounted for after the run has drained (run() asserts that
  /// every buffer is home): delivered plus every attributed loss.
  /// Conservation holds iff this equals offered_packets.
  [[nodiscard]] std::uint64_t accounted_packets() const {
    return delivered_packets + nic_imissed + sut_wasted_work + sut_discards +
           vnf_wasted_work + vnf_discards;
  }

  /// Registry snapshot (cfg.observe / queue sampling); sorted by path.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  /// What the run cost the simulator, over the whole run. Deterministic
  /// like every field, but not part of the serialized result.
  struct Work {
    /// Events fired from the timing wheel (sim/events_processed).
    std::uint64_t wheel_events{0};
    /// NIC TX fetches, fired on lanes (sim/lane_fired).
    std::uint64_t lane_fired{0};
    /// Packet buffers handed out: frames built (pkt/frame.h).
    std::uint64_t frames_built{0};
    /// Ring enqueues plus dequeues, summed over every ring of the run
    /// (ring::ops_on_this_thread).
    std::uint64_t ring_ops{0};
    /// NIC wire-source fetches replayed one at a time
    /// (hw::wire_steps_on_this_thread).
    std::uint64_t wire_steps{0};

    Work& operator+=(const Work& o) {
      wheel_events += o.wheel_events;
      lane_fired += o.lane_fired;
      frames_built += o.frames_built;
      ring_ops += o.ring_ops;
      wire_steps += o.wire_steps;
      return *this;
    }
  };
  Work work;
};

/// Why `cfg` cannot be built, or nullopt when it can. Every rejection
/// happens here, before any testbed exists: a config either runs to
/// completion or is refused with this reason as ScenarioResult::skipped.
std::optional<std::string> validate(const ScenarioConfig& cfg);

/// Build and run one scenario to completion. Deterministic per config+seed.
/// Runs validate(cfg) first; a rejected config returns only `skipped`.
ScenarioResult run_scenario(const ScenarioConfig& cfg);

}  // namespace nfvsb::scenario
