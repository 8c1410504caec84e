// DPDK l2fwd sample application, the VNF the paper runs in every loopback
// VM ("an instance of the DPDK l2fwd sample application that cross-connects
// interfaces, updates the MAC addresses, and forwards packets in batches").
//
// Two behaviours matter to the paper's results and are modelled exactly:
//  * cross-connect with MAC rewrite (dst MAC rewrite is configurable so
//    t4p4s chains can address the next hop's table, appendix A.4);
//  * BUFFERED TX with the BURST_TX_DRAIN_US(100 us) timer: packets wait in
//    the TX buffer until 32 accumulate or the drain fires — the "strict
//    batch processing of DPDK l2fwd" that blows up 0.10 R+ loopback
//    latency in Table 3.
#pragma once

#include <array>
#include <optional>

#include "core/counter.h"
#include "core/simulator.h"
#include "pkt/headers.h"
#include "switches/switch_base.h"
#include "vnf/vm.h"

namespace nfvsb::vnf {

class L2Fwd final : public switches::SwitchBase {
 public:
  static constexpr std::size_t kTxBurst = 32;
  /// DPDK l2fwd's BURST_TX_DRAIN_US.
  static constexpr core::SimDuration kDrainTimeout = core::from_us(100);

  /// Runs on `vcpu` inside a VM; cross-connects exactly two guest devices.
  L2Fwd(core::Simulator& sim, hw::CpuCore& vcpu, std::string name,
        switches::CostModel cost = default_cost_model());

  static switches::CostModel default_cost_model();

  /// Bind the guest views of two vhost-user backends as ports 0 and 1.
  /// Each TX into an empty backend ring is a kick (SpscRing::kicks).
  void bind_virtio_pair(ring::VhostUserPort& dev0, ring::VhostUserPort& dev1);

  /// Rewrite the destination MAC of packets leaving port `out_port`
  /// (chains of t4p4s hops need each hop's table key).
  void set_dst_mac_rewrite(std::size_t out_port, const pkt::MacAddress& mac);

  /// Override the TX drain timeout (ablation studies).
  void set_drain_timeout(core::SimDuration d) { drain_timeout_ = d; }

  [[nodiscard]] std::uint64_t drain_flushes() const { return drain_flushes_; }
  [[nodiscard]] std::uint64_t full_flushes() const { return full_flushes_; }

 protected:
  double process_batch(ring::Port& in, std::vector<pkt::PacketHandle>& batch,
                       std::vector<Tx>& out) override;

 private:
  struct TxBuffer {
    std::vector<pkt::PacketHandle> pkts;
    core::SimTime oldest{0};
    bool drain_armed{false};
  };

  void arm_drain(std::size_t out_port);
  void drain(std::size_t out_port);

  core::SimDuration drain_timeout_{kDrainTimeout};
  std::array<TxBuffer, 2> tx_buf_;
  std::array<std::optional<pkt::MacAddress>, 2> rewrite_;
  core::Counter drain_flushes_;
  core::Counter full_flushes_;
};

}  // namespace nfvsb::vnf
