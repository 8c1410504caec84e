// Steady-state allocation test: once warmed up, a switch's service round
// must not touch the heap.
//
// The binary replaces the global operator new with a counting one
// (counting_new.cpp), so it is built on its own (nfvsb_alloc_tests) rather
// than folded into nfvsb_tests. Each of the seven switches is wired the way the scenario
// builders wire a p2p pair (SwitchBase::wire over two physical ring
// ports), and l2fwd the way a loopback VM binds it (two vhost-user
// devices). After 64 warm-up bursts of 32 frames, which let every ring,
// round buffer, flow cache and event slab reach its high-water mark, 1,024
// more bursts must cause no allocation and no SmallFn heap spill.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "counting_new.h"
#include "core/event_fn.h"
#include "core/simulator.h"
#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "ring/port.h"
#include "ring/vhost_user_port.h"
#include "switches/registry.h"
#include "switches/switch_base.h"
#include "vnf/l2fwd.h"

namespace nfvsb {
namespace {

constexpr int kBurst = 32;
constexpr int kWarmupBursts = 64;
constexpr int kMeasuredBursts = 1024;
constexpr std::uint64_t kMeasuredFrames =
    static_cast<std::uint64_t>(kMeasuredBursts) * kBurst;

/// Heap allocations and SmallFn spills over the measured bursts, the
/// service rounds they took, and how many frames came out the far side.
struct Count {
  std::uint64_t allocs{0};
  std::uint64_t spills{0};
  std::uint64_t rounds{0};
  std::uint64_t delivered{0};
};

/// Push bursts of 64 B frames into `in` (the ingress ring of `dp`),
/// draining the simulator after each, and count what the measured bursts
/// allocate. Frames are pool clones, which never touch the heap.
Count drive(core::Simulator& sim, pkt::PacketPool& pool,
            const switches::SwitchBase& dp, ring::SpscRing& in,
            const std::uint64_t& delivered) {
  pkt::FrameSpec spec;
  spec.frame_bytes = 64;
  // Addresses SUT port 1, the key wire() installs in the t4p4s table.
  spec.dst_mac = switches::egress_mac(1);
  pkt::PacketHandle tmpl = pool.allocate();
  pkt::craft_udp_frame(*tmpl, spec);

  const auto feed = [&](int bursts) {
    for (int b = 0; b < bursts; ++b) {
      for (int i = 0; i < kBurst; ++i) in.enqueue(pool.clone(*tmpl));
      sim.run();
    }
  };
  feed(kWarmupBursts);
  const std::uint64_t d0 = delivered;
  const std::uint64_t r0 = dp.stats().rounds;
  const std::uint64_t spills0 = core::EventFn::heap_fallback_count();
  const std::uint64_t allocs0 = alloc_test::thread_heap_allocs();
  feed(kMeasuredBursts);
  Count c;
  c.allocs = alloc_test::thread_heap_allocs() - allocs0;
  c.spills = core::EventFn::heap_fallback_count() - spills0;
  c.rounds = dp.stats().rounds - r0;
  c.delivered = delivered - d0;
  return c;
}

void expect_allocation_free(const Count& c) {
  EXPECT_EQ(c.delivered, kMeasuredFrames) << "the rig must forward everything";
  ASSERT_GT(c.rounds, 0u);
  EXPECT_EQ(c.allocs, 0u) << static_cast<double>(c.allocs) /
                                 static_cast<double>(c.rounds)
                          << " heap allocations per round";
  EXPECT_EQ(c.spills, 0u);
}

class SteadyStateAlloc
    : public ::testing::TestWithParam<switches::SwitchType> {};

TEST_P(SteadyStateAlloc, P2pRoundIsAllocationFree) {
  // Declaration order is teardown order reversed: the pool outlives every
  // holder of its packets.
  core::Simulator sim(0x5eed);
  pkt::PacketPool pool(4096);
  hw::CpuCore cpu(sim, "alloc.core");
  std::unique_ptr<switches::SwitchBase> sut =
      switches::make_switch(GetParam(), sim, cpu, "sut");
  for (int p = 0; p < 2; ++p) {
    sut->add_port(std::make_unique<ring::RingPort>(
        "sut:nic" + std::to_string(p), ring::PortKind::kPhysical));
  }
  const switches::PortPair p2p[] = {{0, 1}};
  sut->wire(p2p);
  std::uint64_t delivered = 0;
  sut->port(1).out().set_sink([&delivered](pkt::PacketHandle) { ++delivered; });
  sut->start();

  expect_allocation_free(drive(sim, pool, *sut, sut->port(0).in(), delivered));
}

INSTANTIATE_TEST_SUITE_P(
    AllSwitches, SteadyStateAlloc,
    ::testing::ValuesIn(switches::kAllSwitches), [](const auto& info) {
      std::string n = switches::to_string(info.param);
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

TEST(SteadyStateAllocL2fwd, LoopbackRoundIsAllocationFree) {
  core::Simulator sim(0x5eed);
  pkt::PacketPool pool(4096);
  hw::CpuCore vcpu(sim, "alloc.vcpu");
  ring::VhostUserPort dev0("alloc.v0");
  ring::VhostUserPort dev1("alloc.v1");
  vnf::L2Fwd fwd(sim, vcpu, "alloc.l2fwd");
  fwd.bind_virtio_pair(dev0, dev1);
  std::uint64_t delivered = 0;
  dev1.in().set_sink([&delivered](pkt::PacketHandle) { ++delivered; });
  fwd.start();

  // The guest receives what the host wrote into dev0.
  expect_allocation_free(drive(sim, pool, fwd, dev0.out(), delivered));
}

}  // namespace
}  // namespace nfvsb
