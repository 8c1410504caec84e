// Traffic tools: MoonGen pacing/probes/flows, template frames and events
// per frame, MoonGen guest monitoring, pkt-gen CPU-limited TX.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "hw/cable.h"
#include "hw/nic.h"
#include "pkt/headers.h"
#include "ring/netmap_port.h"
#include "traffic/moongen.h"
#include "traffic/pktgen.h"

namespace nfvsb::traffic {
namespace {

class MoonGenNicTest : public ::testing::Test {
 protected:
  MoonGenNicTest() : a_(sim_, "a"), b_(sim_, "b"), cable_(sim_, a_, b_) {}
  core::Simulator sim_;
  pkt::PacketPool pool_{1 << 12};
  hw::NicPort a_;
  hw::NicPort b_;
  hw::Cable cable_;
};

TEST_F(MoonGenNicTest, PacedRateIsAccurate) {
  MoonGen::Config cfg;
  cfg.rate_pps = 2e6;
  MoonGen gen(sim_, pool_, cfg);
  gen.attach_tx_nic(a_);
  MoonGen::Config mon_cfg;
  MoonGen mon(sim_, pool_, mon_cfg);
  mon.attach_rx_nic(b_);
  gen.start_tx(0, core::from_ms(5));
  sim_.run();
  mon.rx_meter().close(core::from_ms(5));
  EXPECT_NEAR(mon.rx_meter().pps(), 2e6, 2e4);
  EXPECT_EQ(gen.tx_failed(), 0u);
}

TEST_F(MoonGenNicTest, SaturationReachesLineRate) {
  MoonGen::Config cfg;  // rate 0 = saturate
  MoonGen gen(sim_, pool_, cfg);
  gen.attach_tx_nic(a_);
  MoonGen mon(sim_, pool_, MoonGen::Config{});
  mon.attach_rx_nic(b_);
  gen.start_tx(0, core::from_ms(3));
  sim_.run();
  mon.rx_meter().close(core::from_ms(3));
  EXPECT_NEAR(mon.rx_meter().gbps(), 10.0, 0.1);
}

TEST_F(MoonGenNicTest, ProbesAreTimestampedAndMeasured) {
  MoonGen::Config cfg;
  cfg.rate_pps = 1e6;
  cfg.probe_interval = core::from_us(100);
  MoonGen gen(sim_, pool_, cfg);
  gen.attach_tx_nic(a_);
  gen.attach_rx_nic(b_);  // direct wire: RTT = serialization + wire
  gen.start_tx(0, core::from_ms(5));
  sim_.run();
  EXPECT_NEAR(static_cast<double>(gen.latency().samples()), 50.0, 5.0);
  // Wire-to-wire: just the 5 ns propagation (stamps are at the MACs).
  EXPECT_NEAR(gen.latency().mean_us(), 0.005, 0.002);
}

TEST_F(MoonGenNicTest, MultiFlowTrafficCyclesSourcePorts) {
  MoonGen::Config cfg;
  cfg.rate_pps = 1e6;
  cfg.num_flows = 8;
  MoonGen gen(sim_, pool_, cfg);
  gen.attach_tx_nic(a_);
  std::map<std::uint16_t, std::uint64_t> ports;
  b_.rx_ring().set_sink([&](pkt::PacketHandle p) {
    const auto t = pkt::parse_five_tuple(p->bytes());
    ASSERT_TRUE(t.has_value());
    ++ports[t->src_port];
  });
  gen.start_tx(0, core::from_ms(2));
  sim_.run();
  ASSERT_EQ(ports.size(), 8u);
  EXPECT_EQ(ports.begin()->first, cfg.frame.src_port);
  // Round-robin: flow counts within one packet of each other.
  std::uint64_t lo = ~0ull, hi = 0;
  for (const auto& [port, v] : ports) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LE(hi - lo, 1u);
}

// The traffic tools cost no event of their own: a paced frame from a
// MoonGen on one NIC to a MoonGen monitoring the other costs the sending
// NIC's fetch and nothing else, and a saturating burst one fetch per frame.
// Fetches fire on the NIC's lane, not the timing wheel.
TEST_F(MoonGenNicTest, LonePacedFrameCostsOneEvent) {
  // "Event" in this test's name counts lane firings plus wheel events.
  MoonGen::Config cfg;
  cfg.rate_pps = 1e6;
  MoonGen gen(sim_, pool_, cfg);
  gen.attach_tx_nic(a_);
  MoonGen mon(sim_, pool_, MoonGen::Config{});
  mon.attach_rx_nic(b_);
  gen.start_tx(0, 1);  // only the frame at t=0 is due before 1 ps
  sim_.run();
  EXPECT_EQ(gen.tx_sent(), 1u);
  EXPECT_EQ(mon.rx_meter().packets(), 1u);
  EXPECT_EQ(sim_.lanes_fired(), 1u);
  EXPECT_EQ(sim_.events_processed(), 0u);
}

TEST_F(MoonGenNicTest, SaturatingBurstCostsOneEventPerFrame) {
  // "Event" in this test's name counts lane firings plus wheel events.
  constexpr std::uint64_t kFrames = 100;
  MoonGen gen(sim_, pool_, MoonGen::Config{});  // rate 0 = line rate
  gen.attach_tx_nic(a_);
  MoonGen mon(sim_, pool_, MoonGen::Config{});
  mon.attach_rx_nic(b_);
  // Line rate at 64 B is one frame per 67.2 ns.
  gen.start_tx(0, kFrames * core::from_ns(67.2));
  sim_.run();
  EXPECT_EQ(gen.tx_sent(), kFrames);
  EXPECT_EQ(mon.rx_meter().packets(), kFrames);
  EXPECT_EQ(sim_.lanes_fired(), kFrames);
  EXPECT_EQ(sim_.events_processed(), 0u);
}

// A frame the receiving RX ring drops at the MAC is counted and never
// built: a saturating MoonGen feeds a lazily read ring nobody drains, and
// the pool hands out exactly one buffer per frame put in. The counts are
// the ones a model that built every frame gave.
TEST_F(MoonGenNicTest, FramesTheRxRingDropsAreNeverBuilt) {
  b_.rx_ring().set_consumer_busy(true);  // read lazily, never drained
  pool_.set_reclaim([this] { b_.catch_up_rx(); });
  MoonGen gen(sim_, pool_, MoonGen::Config{});
  gen.attach_tx_nic(a_);
  gen.start_tx(0, core::from_us(200));
  sim_.run_until(core::from_us(205));  // every frame has landed
  EXPECT_EQ(gen.tx_sent(), 2977u);
  EXPECT_EQ(b_.rx_frames(), 2977u);
  EXPECT_EQ(b_.imissed(), 2465u);
  EXPECT_EQ(b_.rx_ring().size(), 512u);
  EXPECT_EQ(pool_.handed_out(), b_.rx_ring().enqueued());
  EXPECT_EQ(pool_.outstanding(), 512u);
  b_.rx_ring().clear();
}

// A NIC monitor is handed each frame before it arrives, so its meter goes
// by the arrival time it is passed: with the run stopped just before the
// arrival the frame is not counted, stopped exactly at it, it is.
TEST_F(MoonGenNicTest, MonitorMeterSeesArrivalTime) {
  // "Event" in this test's name counts lane firings plus wheel events.
  // dma_tx 1000 + serialization 67.2 + propagation 5 + dma_rx 2400 ns.
  const core::SimTime arrival = core::from_ns(1000 + 67.2 + 5 + 2400);
  for (const core::SimTime stop : {arrival - 1, arrival}) {
    core::Simulator sim;
    hw::NicPort a(sim, "a");
    hw::NicPort b(sim, "b");
    hw::Cable cable(sim, a, b);
    MoonGen gen(sim, pool_, MoonGen::Config{});
    gen.attach_tx_nic(a);
    MoonGen mon(sim, pool_, MoonGen::Config{});
    mon.attach_rx_nic(b);
    mon.rx_meter().stop_at(stop);
    gen.start_tx(0, 1);
    sim.run_until(stop);
    // Handed over at the fetch, the one firing.
    EXPECT_EQ(sim.lanes_fired(), 1u);
    EXPECT_EQ(sim.events_processed(), 0u);
    mon.rx_meter().close(stop);
    sim.run();
    EXPECT_EQ(mon.rx_meter().packets(), stop == arrival ? 1u : 0u);
  }
}

// Several MoonGens may feed one NIC: the NIC pulls them in (emit time,
// attach order), and every frame either leaves or is a TX-ring drop.
TEST_F(MoonGenNicTest, TwoGeneratorsShareOneNic) {
  std::vector<std::pair<core::SimTime, std::uint32_t>> seen;
  b_.rx_ring().set_sink([&](pkt::PacketHandle p) {
    seen.emplace_back(p->sw_timestamp, p->origin);
  });
  // A probe per frame with software stamps: each frame carries its emit
  // time.
  MoonGen::Config one_cfg;
  one_cfg.rate_pps = 1e6;
  one_cfg.probe_interval = 1;
  one_cfg.software_timestamps = true;
  one_cfg.origin = 1;
  MoonGen::Config two_cfg = one_cfg;
  two_cfg.rate_pps = 4e6;  // ties with `one` every 1 us
  two_cfg.origin = 2;
  MoonGen one(sim_, pool_, one_cfg);
  MoonGen two(sim_, pool_, two_cfg);
  one.attach_tx_nic(a_);
  two.attach_tx_nic(a_);
  one.start_tx(0, core::from_us(100));
  two.start_tx(0, core::from_us(100));
  sim_.run();
  EXPECT_EQ(one.tx_sent(), 100u);
  EXPECT_EQ(two.tx_sent(), 400u);
  EXPECT_EQ(one.tx_failed() + two.tx_failed(), 0u);
  ASSERT_EQ(seen.size(), 500u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen[0], std::make_pair(core::SimTime{0}, 1u));
  EXPECT_EQ(seen[1], std::make_pair(core::SimTime{0}, 2u));
  EXPECT_EQ(seen[5], std::make_pair(core::from_us(1), 1u));
  EXPECT_EQ(seen[6], std::make_pair(core::from_us(1), 2u));
}

// Every generated frame is a copy of one prebuilt frame, with the sequence
// tag and (over several flows) the UDP source port patched: byte for byte
// what crafting each frame from scratch gives.
TEST_F(MoonGenNicTest, TemplateFramesMatchCraftedFrames) {
  for (const std::uint32_t flows : {1u, 32768u}) {
    std::vector<pkt::PacketHandle> got;
    b_.rx_ring().set_sink(
        [&](pkt::PacketHandle p) { got.push_back(std::move(p)); });
    MoonGen::Config cfg;
    cfg.num_flows = flows;
    cfg.frame.frame_bytes = 128;
    cfg.frame.src_port = 65500;  // wraps past 65535 with 32768 flows
    MoonGen gen(sim_, pool_, cfg);
    gen.attach_tx_nic(a_);
    gen.start_tx(sim_.now(), sim_.now() + core::from_us(10));
    sim_.run();
    ASSERT_EQ(got.size(), gen.tx_sent());
    auto ref = pool_.allocate();
    for (const pkt::PacketHandle& p : got) {
      pkt::FrameSpec spec = cfg.frame;
      spec.src_port =
          static_cast<std::uint16_t>(cfg.frame.src_port + (p->seq - 1) % flows);
      pkt::craft_udp_frame(*ref, spec);
      pkt::write_payload_seq(*ref, p->seq);
      ASSERT_EQ(p->size(), ref->size());
      EXPECT_TRUE(std::equal(p->bytes().begin(), p->bytes().end(),
                             ref->bytes().begin()))
          << flows << " flows, seq " << p->seq;
    }
    // Detach the sink's frames before the next generator reuses the ring.
    got.clear();
  }
}

TEST_F(MoonGenNicTest, MeterOpensAfterWarmup) {
  MoonGen::Config cfg;
  cfg.rate_pps = 1e6;
  MoonGen gen(sim_, pool_, cfg);
  gen.attach_tx_nic(a_);
  MoonGen::Config mon_cfg;
  mon_cfg.meter_open_at = core::from_ms(1);
  MoonGen mon(sim_, pool_, mon_cfg);
  mon.attach_rx_nic(b_);
  gen.start_tx(0, core::from_ms(2));
  sim_.run();
  mon.rx_meter().close(core::from_ms(2));
  EXPECT_NEAR(static_cast<double>(mon.rx_meter().packets()), 1000.0, 20.0);
}

TEST(PktGenTest, CpuLimitedRateFollowsPrepCost) {
  core::Simulator sim;
  pkt::PacketPool pool(1 << 12);
  ring::PtnetPort host("pt");
  ring::GuestPtnetPort guest(host);
  PktGen::Config cfg;
  cfg.prep_fixed_ns = 100;
  cfg.prep_byte_ns = 0;
  PktGen gen(sim, pool, cfg);
  gen.attach_tx(guest);
  host.in().set_sink([](pkt::PacketHandle) {});
  gen.start_tx(0, core::from_ms(1));
  sim.run();
  // 100 ns/packet -> 10 Mpps -> ~10000 packets in 1 ms.
  EXPECT_NEAR(static_cast<double>(gen.tx_sent()), 10000.0, 100.0);
}

TEST(PktGenTest, OptionalPacingCapApplies) {
  core::Simulator sim;
  pkt::PacketPool pool(1 << 12);
  ring::PtnetPort host("pt");
  ring::GuestPtnetPort guest(host);
  PktGen::Config cfg;
  cfg.prep_fixed_ns = 100;
  cfg.rate_pps = 1e6;  // slower than the CPU limit
  PktGen gen(sim, pool, cfg);
  gen.attach_tx(guest);
  host.in().set_sink([](pkt::PacketHandle) {});
  gen.start_tx(0, core::from_ms(1));
  sim.run();
  EXPECT_NEAR(static_cast<double>(gen.tx_sent()), 1000.0, 20.0);
}

TEST(PktGenTest, LargerFramesSlowTheGenerator) {
  core::Simulator sim;
  pkt::PacketPool pool(1 << 12);
  ring::PtnetPort host("pt");
  ring::GuestPtnetPort guest(host);
  PktGen::Config small_cfg;
  small_cfg.frame.frame_bytes = 64;
  PktGen::Config big_cfg;
  big_cfg.frame.frame_bytes = 1024;
  PktGen small(sim, pool, small_cfg);
  PktGen big(sim, pool, big_cfg);
  host.in().set_sink([](pkt::PacketHandle) {});
  small.attach_tx(guest);
  small.start_tx(0, core::from_ms(1));
  sim.run();
  ring::PtnetPort host2("pt2");
  ring::GuestPtnetPort guest2(host2);
  host2.in().set_sink([](pkt::PacketHandle) {});
  big.attach_tx(guest2);
  big.start_tx(core::from_ms(1), core::from_ms(2));
  sim.run();
  EXPECT_GT(small.tx_sent(), big.tx_sent());
}

// Regression: a probe emitted (and software-timestamped) at t=0 carries
// sw_timestamp == 0, which is a perfectly valid instant. The old code used
// 0 as the "no timestamp" sentinel and silently dropped the sample.
TEST_F(MoonGenNicTest, ProbeAtTimeZeroIsMeasured) {
  MoonGen::Config cfg;
  cfg.rate_pps = 1e6;
  cfg.probe_interval = core::from_ms(10);  // only the t=0 probe fits
  cfg.software_timestamps = true;
  MoonGen gen(sim_, pool_, cfg);
  gen.attach_tx_nic(a_);
  gen.attach_rx_nic(b_);
  gen.start_tx(0, core::from_us(100));
  sim_.run();
  EXPECT_EQ(gen.latency().samples(), 1u);
}

// pkt-gen starts probing at its first frame: a MoonGen guest monitor
// measures the probe pkt-gen stamps at t=0.
TEST(PktGenProbe, ProbeAtTimeZeroIsMeasured) {
  core::Simulator sim;
  pkt::PacketPool pool(64);
  ring::PtnetPort host("pt");
  ring::GuestPtnetPort guest(host);
  // Loop the guest's TX straight back to its RX ring.
  host.in().set_sink(
      [&host](pkt::PacketHandle p) { host.out().enqueue(std::move(p)); });
  PktGen::Config cfg;
  cfg.rate_pps = 1e6;
  cfg.probe_interval = core::from_ms(10);  // only the t=0 probe fits
  PktGen gen(sim, pool, cfg);
  gen.attach_tx(guest);
  MoonGen mon(sim, pool, MoonGen::Config{});
  mon.attach_rx_guest(guest);
  gen.start_tx(0, core::from_us(100));
  sim.run();
  EXPECT_EQ(mon.rx_meter().packets(), gen.tx_sent());
  EXPECT_EQ(mon.latency().samples(), 1u);
}

// Regression: gap() used to truncate the exact inter-frame interval to
// whole picoseconds every emission, so any rate whose period is not an
// integer drifted fast by up to 1 ps/frame (27 ppm at 97 Mpps — visible in
// any long offered-load ledger). The fractional remainder is now carried.
TEST(PacingDrift, MoonGenOfferedLoadWithinOnePpm) {
  core::Simulator sim;
  pkt::PacketPool pool(64);
  ring::PtnetPort host("pt");
  ring::GuestPtnetPort guest(host);
  host.in().set_sink([](pkt::PacketHandle) {});
  MoonGen::Config cfg;
  cfg.rate_pps = 9.7e7;  // period 10309.27 ps: fractional
  MoonGen gen(sim, pool, cfg);
  gen.attach_tx_guest(guest, cfg.rate_pps);
  const core::SimTime t_end = core::from_ms(10);
  gen.start_tx(0, t_end);
  sim.run();
  const double expected = cfg.rate_pps * core::to_sec(t_end);  // 970000
  EXPECT_NEAR(static_cast<double>(gen.tx_sent()), expected,
              std::max(3.0, 1e-6 * expected));
}

TEST(PacingDrift, PktGenOfferedLoadWithinOnePpm) {
  core::Simulator sim;
  pkt::PacketPool pool(64);
  ring::PtnetPort host("pt");
  ring::GuestPtnetPort guest(host);
  host.in().set_sink([](pkt::PacketHandle) {});
  PktGen::Config cfg;
  cfg.rate_pps = 1.7e7;  // period 58823.53 ps: fractional (and > prep cost)
  PktGen gen(sim, pool, cfg);
  gen.attach_tx(guest);
  const core::SimTime t_end = core::from_ms(60);
  gen.start_tx(0, t_end);
  sim.run();
  const double expected = cfg.rate_pps * core::to_sec(t_end);  // 1020000
  EXPECT_NEAR(static_cast<double>(gen.tx_sent()), expected,
              std::max(3.0, 1e-6 * expected));
}

// Regression: a guest monitor must take a probe stamped at t=0 (a valid
// instant, not "unset") as a sample.
TEST(MoonGenGuestMonitor, ProbeStampedAtTimeZeroIsMeasured) {
  core::Simulator sim;
  pkt::PacketPool pool(4);
  ring::PtnetPort host("pt");
  ring::GuestPtnetPort guest(host);
  MoonGen mon(sim, pool, MoonGen::Config{});
  mon.attach_rx_guest(guest);
  auto p = pool.allocate();
  pkt::craft_udp_frame(*p, pkt::FrameSpec{});
  p->probe_id = 1;
  p->sw_timestamp = 0;  // stamped at t=0: valid, not "unset"
  host.out().enqueue(std::move(p));
  EXPECT_EQ(mon.rx_meter().packets(), 1u);
  EXPECT_EQ(mon.latency().samples(), 1u);
}

}  // namespace
}  // namespace nfvsb::traffic
