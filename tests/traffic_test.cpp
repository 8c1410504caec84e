// Traffic tools: MoonGen pacing/probes/flows, template frames and events
// per frame, MoonGen guest monitoring, pkt-gen's law, guest TX rings that
// pull their generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/trace_sink.h"
#include "drain.h"
#include "hw/cable.h"
#include "hw/nic.h"
#include "obs/trace.h"
#include "pkt/headers.h"
#include "ring/netmap_port.h"
#include "ring/vhost_user_port.h"
#include "traffic/moongen.h"

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
// built: a saturating MoonGen's wire source feeds a ring nobody drains, and
// the pool hands out exactly one buffer per frame put in. The counts are
// the ones a model that built every frame gave.
TEST_F(MoonGenNicTest, FramesTheRxRingDropsAreNeverBuilt) {
  b_.rx_ring().set_consumer_busy(true);  // never drained
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
  drain(b_.rx_ring());
}

// A generator on another machine holds no buffer of the SUT's pool: a
// frame sent over a NIC takes one only where it lands, and a pool with
// none left drops it there as imissed, whether the receiving ring is read
// lazily (a busy consumer) or lands each frame at its arrival (a plain
// sink). The generator sends every frame either way.
TEST_F(MoonGenNicTest, DryPoolDropsFramesWhereTheyLandOnEitherPath) {
  for (const bool sink : {false, true}) {
    core::Simulator sim;
    pkt::PacketPool pool(8);
    std::vector<pkt::PacketHandle> held;
    while (pkt::PacketHandle p = pool.allocate()) held.push_back(std::move(p));
    hw::NicPort a(sim, "a");
    hw::NicPort b(sim, "b");
    hw::Cable cable(sim, a, b);
    std::uint64_t seen = 0;
    if (sink) {
      b.rx_ring().set_sink([&](pkt::PacketHandle) { ++seen; });
    } else {
      b.rx_ring().set_consumer_busy(true);
    }
    MoonGen gen(sim, pool, MoonGen::Config{});
    gen.attach_tx_nic(a);
    gen.start_tx(0, core::from_us(10));
    sim.run_until(core::from_us(20));  // every frame has landed
    EXPECT_TRUE(a.wired());
    EXPECT_EQ(gen.tx_sent(), 149u);
    EXPECT_EQ(gen.pool_exhausted(), 0u);
    EXPECT_EQ(b.rx_frames(), 149u);
    EXPECT_EQ(b.imissed(), 149u);
    EXPECT_EQ(seen, 0u);
    EXPECT_EQ(b.rx_ring().size(), 0u);
    EXPECT_EQ(pool.handed_out(), 8u);
    EXPECT_EQ(pool.alloc_failures(), 149u + 1u);  // + the probe for dryness
  }
}

// A probe is built at emit, so a dry pool loses it at the generator; one
// that is due keeps every later frame a probe until one gets a buffer.
// The wire source's fetch then finds nothing to send and waits for the
// next emit, as a TX fetch on empty rings does.
TEST_F(MoonGenNicTest, DryPoolLosesProbesAtTheGeneratorOnEitherPath) {
  for (const bool sink : {false, true}) {
    core::Simulator sim;
    pkt::PacketPool pool(8);
    std::vector<pkt::PacketHandle> held;
    while (pkt::PacketHandle p = pool.allocate()) held.push_back(std::move(p));
    hw::NicPort a(sim, "a");
    hw::NicPort b(sim, "b");
    hw::Cable cable(sim, a, b);
    if (sink) {
      b.rx_ring().set_sink([](pkt::PacketHandle) {});
    } else {
      b.rx_ring().set_consumer_busy(true);
    }
    MoonGen::Config cfg;
    cfg.probe_interval = core::from_us(1);
    MoonGen gen(sim, pool, cfg);
    gen.attach_tx_nic(a);
    gen.start_tx(0, core::from_us(10));
    sim.run_until(core::from_us(20));
    EXPECT_TRUE(a.wired());
    EXPECT_EQ(gen.tx_sent(), 0u);
    EXPECT_EQ(gen.pool_exhausted(), 149u);
    EXPECT_EQ(a.tx_frames(), 0u);
    EXPECT_EQ(b.rx_frames(), 0u);
  }
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

// Each traffic direction has its own MoonGen on its own NIC port: a second
// generator on one port is refused, and the first one still sends.
TEST_F(MoonGenNicTest, SecondGeneratorOnOnePortIsRejected) {
  MoonGen::Config cfg;
  cfg.rate_pps = 1e6;
  MoonGen one(sim_, pool_, cfg);
  MoonGen two(sim_, pool_, cfg);
  one.attach_tx_nic(a_);
  EXPECT_THROW(two.attach_tx_nic(a_), std::logic_error);
  one.start_tx(0, core::from_us(10));
  sim_.run();
  EXPECT_EQ(one.tx_sent(), 10u);
  EXPECT_EQ(a_.tx_frames(), 10u);
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

/// pkt-gen's minimum gap for `bytes`-byte frames: the guest CPU's
/// preparation cost, 42 ns + 0.075 ns per byte (scenario.cpp).
double pktgen_gap_ps(std::uint32_t bytes) {
  return (42 + 0.075 * static_cast<double>(bytes)) *
         static_cast<double>(core::kNanosecond);
}

/// A MoonGen under pkt-gen's law in a guest: software-timestamped probes
/// that start at its first frame.
MoonGen::Config pktgen_config(std::uint32_t bytes, double rate_pps,
                              core::SimDuration probe_interval) {
  MoonGen::Config cfg;
  cfg.frame.frame_bytes = bytes;
  cfg.rate_pps = rate_pps;
  cfg.probe_interval = probe_interval;
  cfg.software_timestamps = true;
  cfg.origin = 2;
  return cfg;
}

// pkt-gen's law, pinned to the values the separate pkt-gen generator
// produced before it became a MoonGen law: the first 64 emit times, and
// which frames are probes with what software timestamp, at 64 B and
// 1518 B, unpaced (prep-cost limited) and capped at 5.3 Mpps. A 250 ns
// probe interval probes every sixth 64 B frame unpaced, every second one
// otherwise. The guest ring's consumer stays idle, so each frame is put
// in by its own event, at its emit picosecond.
TEST(PktGenLaw, EmitTimesAndProbesMatchPktGen) {
  // Capped: 1e12 / 5.3e6 = 188679.245... ps, the remainder carried.
  const core::SimTime capped[64] = {
      0,        188679,   377358,   566037,   754716,   943396,   1132075,
      1320754,  1509433,  1698113,  1886792,  2075471,  2264150,  2452830,
      2641509,  2830188,  3018867,  3207547,  3396226,  3584905,  3773584,
      3962264,  4150943,  4339622,  4528301,  4716981,  4905660,  5094339,
      5283018,  5471698,  5660377,  5849056,  6037735,  6226415,  6415094,
      6603773,  6792452,  6981132,  7169811,  7358490,  7547169,  7735849,
      7924528,  8113207,  8301886,  8490566,  8679245,  8867924,  9056603,
      9245283,  9433962,  9622641,  9811320,  9999999,  10188679, 10377358,
      10566037, 10754716, 10943396, 11132075, 11320754, 11509433, 11698113,
      11886792};
  struct Case {
    std::uint32_t bytes;
    double rate_pps;
    /// Unpaced: the exact gap in ps (an integer); capped: 0.
    core::SimDuration gap;
    std::size_t probe_every;
    std::uint64_t sent_in_100us;
  };
  const Case cases[] = {{64, 0, 46800, 6, 2137},
                        {64, 5.3e6, 0, 2, 531},
                        {1518, 0, 155850, 2, 642},
                        {1518, 5.3e6, 0, 2, 531}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.bytes) + " B at " +
                 std::to_string(c.rate_pps) + " pps");
    core::Simulator sim;
    pkt::PacketPool pool(1 << 12);
    ring::PtnetPort host("pt");
    ring::Port guest("pt.guest", host);
    struct Seen {
      core::SimTime at;
      std::uint64_t probe_id;
      core::SimTime sw_timestamp;
    };
    std::vector<Seen> seen;
    host.in().set_sink([&](pkt::PacketHandle p) {
      if (seen.size() < 64) {
        seen.push_back({sim.now(), p->probe_id, p->sw_timestamp});
      }
    });
    MoonGen gen(sim, pool,
                pktgen_config(c.bytes, c.rate_pps, core::from_ns(250)));
    gen.attach_tx_guest(guest, pktgen_gap_ps(c.bytes));
    gen.start_tx(0, core::from_us(100));
    sim.run();
    EXPECT_EQ(gen.tx_sent(), c.sent_in_100us);
    ASSERT_EQ(seen.size(), 64u);
    std::uint64_t probes = 0;
    for (std::size_t i = 0; i < 64; ++i) {
      const core::SimTime want =
          c.gap > 0 ? static_cast<core::SimTime>(i) * c.gap : capped[i];
      EXPECT_EQ(seen[i].at, want) << "frame " << i;
      if (i % c.probe_every == 0) {
        EXPECT_EQ(seen[i].probe_id, ++probes) << "frame " << i;
        EXPECT_EQ(seen[i].sw_timestamp, want) << "frame " << i;
      } else {
        EXPECT_EQ(seen[i].probe_id, 0u) << "frame " << i;
        EXPECT_EQ(seen[i].sw_timestamp, core::kNoTimestamp) << "frame " << i;
      }
    }
  }
}

// A guest TX ring pulls its generator: a frame the full ring rejects is
// counted and never built, so the pool hands out one buffer per frame put
// in.
TEST(GuestPull, RejectedFrameIsNeverBuilt) {
  core::Simulator sim;
  pkt::PacketPool pool(1 << 12);
  ring::PtnetPort host("pt", 8);  // nobody reads it: it fills at 8
  ring::Port guest("pt.guest", host);
  MoonGen::Config cfg;
  cfg.rate_pps = 1e7;
  MoonGen gen(sim, pool, cfg);
  gen.attach_tx_guest(guest, 0);
  gen.start_tx(0, core::from_us(10));  // 100 frames
  sim.run();
  EXPECT_EQ(gen.tx_sent(), 8u);
  EXPECT_EQ(gen.tx_failed(), 92u);
  EXPECT_EQ(host.in().enqueued(), 8u);
  EXPECT_EQ(host.in().drops(), 92u);
  EXPECT_EQ(pool.handed_out(), 0u);  // nothing dequeued yet
  while (host.in().dequeue()) {
  }
  EXPECT_EQ(pool.handed_out(), 8u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

// While the ring's consumer is idle, an event puts each frame in at its
// emit picosecond (its watcher sees that time as now and as the arrival).
// While the consumer is busy, no event fires per frame: its next read puts
// in everything due, each frame stamped with its emit time.
TEST(GuestPull, IdleConsumerIsWokenAtTheEmitPicosecond) {
  core::Simulator sim;
  pkt::PacketPool pool(1 << 12);
  ring::PtnetPort host("pt");
  ring::Port guest("pt.guest", host);
  std::vector<std::pair<core::SimTime, core::SimTime>> put_in;  // now, arrival
  host.in().set_watcher([&](bool) {
    put_in.emplace_back(sim.now(), host.in().arrival_time(sim.now()));
  });
  MoonGen::Config cfg;
  cfg.rate_pps = 1e6;  // 1 us apart
  MoonGen gen(sim, pool, cfg);
  gen.attach_tx_guest(guest, 0);
  gen.start_tx(0, core::from_us(10));

  sim.run_until(core::from_ns(4500));
  ASSERT_EQ(put_in.size(), 5u);
  for (std::size_t i = 0; i < put_in.size(); ++i) {
    EXPECT_EQ(put_in[i].first, core::from_us(static_cast<double>(i)));
    EXPECT_EQ(put_in[i].second, core::from_us(static_cast<double>(i)));
  }
  EXPECT_EQ(sim.events_processed(), 5u);  // one wake per frame

  // Busy: frames at 5..8 us cost no event; a read at 8.5 us puts them in.
  host.in().set_consumer_busy(true);
  sim.run_until(core::from_ns(8500));
  EXPECT_EQ(sim.events_processed(), 5u);
  EXPECT_EQ(put_in.size(), 5u);
  EXPECT_EQ(host.in().size(), 9u);
  ASSERT_EQ(put_in.size(), 9u);
  for (std::size_t i = 5; i < 9; ++i) {
    EXPECT_EQ(put_in[i].first, core::from_ns(8500));
    EXPECT_EQ(put_in[i].second, core::from_us(static_cast<double>(i)));
  }

  // Idle again: the 9 us frame gets its event.
  host.in().set_consumer_busy(false);
  sim.run();
  EXPECT_EQ(sim.events_processed(), 6u);
  ASSERT_EQ(put_in.size(), 10u);
  EXPECT_EQ(put_in[9].first, core::from_us(9));
  EXPECT_EQ(gen.tx_sent(), 10u);
}

// A packet tracer changes nothing in how a guest ring pulls its
// generator: with the consumer busy, the frames cost no wake event; the
// read after them puts them in, each with its trace id and a residency
// slice that begins at its emit time.
TEST(GuestPull, TracedBusyConsumerCostsNoWakePerFrame) {
  core::Simulator sim;
  obs::TraceRecorder::Config tc;
  tc.packet_sample_every = 1;
  obs::TraceRecorder tr(sim, tc);
  core::TraceInstall install(&tr);
  pkt::PacketPool pool(1 << 12);
  ring::PtnetPort host("pt");
  ring::Port guest("pt.guest", host);
  host.in().set_consumer_busy(true);
  MoonGen::Config cfg;
  cfg.rate_pps = 1e6;  // 1 us apart
  MoonGen gen(sim, pool, cfg);
  gen.attach_tx_guest(guest, 0);
  gen.start_tx(0, core::from_us(10));
  sim.run_until(core::from_us(20));
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(host.in().size(), 10u);
  std::vector<core::SimTime> begins;
  for (const obs::TraceRecorder::Event& e : tr.events()) {
    if (e.ph == 'b') begins.push_back(e.ts);
  }
  ASSERT_EQ(begins.size(), 10u);
  for (std::size_t i = 0; i < begins.size(); ++i) {
    EXPECT_EQ(begins[i], core::from_us(static_cast<double>(i)));
  }
  std::uint64_t seq = 0;
  while (pkt::PacketHandle p = host.in().dequeue()) {
    EXPECT_EQ(p->seq, ++seq);
    EXPECT_EQ(p->trace_id, pkt::trace_id(cfg.origin, p->seq));
  }
  EXPECT_EQ(seq, 10u);
}

// A consumer woken by a pulled frame may go idle again before the pull
// returns (a switch whose round finds no batch ready). The ring re-arms
// for the next frame only once the pull is done, so every frame still
// gets its own event at its emit picosecond.
TEST(GuestPull, ConsumerThatIdlesInsideThePullIsWokenAgain) {
  core::Simulator sim;
  pkt::PacketPool pool(1 << 12);
  ring::PtnetPort host("pt");
  ring::Port guest("pt.guest", host);
  std::vector<core::SimTime> put_in;
  host.in().set_watcher([&](bool) {
    put_in.push_back(sim.now());
    host.in().set_consumer_busy(true);
    host.in().set_consumer_busy(false);
  });
  MoonGen::Config cfg;
  cfg.rate_pps = 1e6;
  MoonGen gen(sim, pool, cfg);
  gen.attach_tx_guest(guest, 0);
  gen.start_tx(0, core::from_us(5));
  sim.run();
  ASSERT_EQ(put_in.size(), 5u);
  for (std::size_t i = 0; i < put_in.size(); ++i) {
    EXPECT_EQ(put_in[i], core::from_us(static_cast<double>(i)));
  }
  EXPECT_EQ(sim.events_processed(), 5u);
}

// Same-instant order: work a frame's enqueue schedules for the next
// frame's emit picosecond runs before that frame goes in, as it did when
// each frame had a pacing event re-armed after its emit.
TEST(GuestPull, WorkAFrameSchedulesRunsBeforeTheNextFrame) {
  core::Simulator sim;
  pkt::PacketPool pool(1 << 12);
  ring::PtnetPort host("pt");
  ring::Port guest("pt.guest", host);
  std::vector<std::size_t> seen;
  host.in().set_watcher([&](bool) {
    if (seen.empty()) {
      sim.post_in(core::from_us(1), [&] { seen.push_back(host.in().size()); });
    }
  });
  MoonGen::Config cfg;
  cfg.rate_pps = 1e6;
  MoonGen gen(sim, pool, cfg);
  gen.attach_tx_guest(guest, 0);
  gen.start_tx(0, core::from_us(2));
  sim.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 1u);  // the 1 us frame is not in yet
  EXPECT_EQ(host.in().size(), 2u);
}

// A vhost guest kicks the backend once per empty -> non-empty enqueue.
// Frames pulled in bulk by a busy reader kick exactly as often as enqueues
// at each emit time would have.
TEST(GuestPull, KicksEqualThePerEmitCount) {
  core::Simulator sim;
  pkt::PacketPool pool(1 << 12);
  ring::VhostUserPort backend("vhost");
  ring::Port guest("vhost.guest", backend);
  backend.in().set_consumer_busy(true);
  MoonGen::Config cfg;
  cfg.rate_pps = 1e7;  // one frame every 100 ns, 100 in all
  MoonGen gen(sim, pool, cfg);
  gen.attach_tx_guest(guest, 0);
  gen.start_tx(0, core::from_us(10));
  // A busy switch that drains the ring every 250 ns, from 125 ns on.
  std::uint64_t reads = 0;
  (void)sim.schedule_every(
      core::from_ns(125), core::from_ns(250), core::EventFn([&] {
        ++reads;
        while (backend.in().dequeue()) {
        }
      }));
  sim.run_until(core::from_us(11));
  EXPECT_EQ(gen.tx_sent(), 100u);
  // Per emit: frame i kicks when no frame was emitted since the last read,
  // i.e. when it is the first emit after a drain.
  std::uint64_t want = 0;
  core::SimTime last_epoch = -1;
  for (int i = 0; i < 100; ++i) {
    const core::SimTime t = core::from_ns(100.0 * i);
    const core::SimTime epoch = t < core::from_ns(125)
                                    ? 0
                                    : 1 + (t - core::from_ns(125)) /
                                              core::from_ns(250);
    if (epoch != last_epoch) ++want;
    last_epoch = epoch;
  }
  EXPECT_EQ(backend.in().kicks(), want);
  EXPECT_EQ(want, 41u);
  // The busy ring cost the generator no event: only the reader's fired.
  EXPECT_EQ(sim.events_processed(), reads);
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
  ring::Port guest("pt.guest", host);
  // Loop the guest's TX straight back to its RX ring.
  host.in().set_sink(
      [&host](pkt::PacketHandle p) { host.out().enqueue(std::move(p)); });
  // Only the t=0 probe fits.
  MoonGen gen(sim, pool, pktgen_config(64, 1e6, core::from_ms(10)));
  gen.attach_tx_guest(guest, pktgen_gap_ps(64));
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
  ring::Port guest("pt.guest", host);
  host.in().set_sink([](pkt::PacketHandle) {});
  MoonGen::Config cfg;
  cfg.rate_pps = 9.7e7;  // period 10309.27 ps: fractional
  MoonGen gen(sim, pool, cfg);
  gen.attach_tx_guest(guest, 0);
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
  ring::Port guest("pt.guest", host);
  host.in().set_sink([](pkt::PacketHandle) {});
  MoonGen::Config cfg =
      pktgen_config(64, 1.7e7, 0);  // period 58823.53 ps: > prep cost
  MoonGen gen(sim, pool, cfg);
  gen.attach_tx_guest(guest, pktgen_gap_ps(64));
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
  ring::Port guest("pt.guest", host);
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
