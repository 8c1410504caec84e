// Snabb — LuaJIT-based modular switch with a pure pipeline processing
// model (the only one in the paper's taxonomy, Table 1).
//
// Modelled behaviours:
//  * app network built via the config.app/config.link surface (AppEngine);
//  * PIPELINE staging: each breath moves a batch across ONE app; batches
//    are parked on inter-app links (internal ports) in between, so an
//    N-app path costs N service rounds of latency — the "intermediate
//    inter-module buffers" penalty of Sec. 5.3;
//  * LuaJIT warmup and trace-abort/GC stalls (LuaJitModel);
//  * its own userspace vhost-user backend (slightly costlier than DPDK's).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/simulator.h"
#include "ring/spsc_ring.h"
#include "switches/snabb/engine.h"
#include "switches/snabb/luajit_model.h"
#include "switches/switch_base.h"

namespace nfvsb::switches::snabb {

class SnabbSwitch final : public SwitchBase {
 public:
  SnabbSwitch(core::Simulator& sim, hw::CpuCore& core, std::string name,
              CostModel cost = default_cost_model());

  static CostModel default_cost_model();

  [[nodiscard]] AppEngine& engine() { return engine_; }
  [[nodiscard]] LuaJitModel& jit() { return jit_; }

  /// Build internal link ports and the breath routing table from the app
  /// network. Call after all apps/links/ports are configured, before
  /// start().
  void commit();

  /// One app per referenced port (`app<N>`: an Intel82599 app for a
  /// physical port, a vhost-user app otherwise), a link per pair, then
  /// commit().
  void wire(std::span<const PortPair> pairs) override;

 protected:
  double process_batch(ring::Port& in, std::vector<pkt::PacketHandle>& batch,
                       std::vector<Tx>& out) override;

 private:
  struct Route {
    App* app{nullptr};
    std::size_t dest_port{0};
    bool valid{false};
  };

  AppEngine engine_;
  LuaJitModel jit_;
  /// Extra per-packet cost when the app network mixes NIC and vhost apps:
  /// heterogeneous pipelines blow LuaJIT's trace budget (side traces), a
  /// real Snabb effect that shows up as p2v underperforming BOTH p2p and
  /// v2v in the paper (8.9 / 5.97 / 6.42 Gbps).
  double hetero_penalty_ns_{0.0};
  std::vector<std::unique_ptr<ring::SpscRing>> link_rings_;
  std::vector<Route> routes_;  // indexed by switch port index
  core::Rng jit_rng_;
};

}  // namespace nfvsb::switches::snabb
