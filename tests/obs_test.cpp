// Observability layer: counter registry semantics, queue-depth sampling
// against a hand-scripted occupancy timeline, trace recorder JSON shape,
// hook balance on a live data path, and the two invariants the layer must
// never break — observed runs measure identically to unobserved ones, and
// observed campaign JSON is thread-count independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/runner.h"
#include "campaign/serialize.h"
#include "core/counter.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "core/trace_sink.h"
#include "drain.h"
#include "hw/cable.h"
#include "hw/nic.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "pkt/packet_pool.h"
#include "ring/netmap_port.h"
#include "ring/spsc_ring.h"
#include "ring/vhost_user_port.h"
#include "scenario/scenario.h"
#include "switches/registry.h"
#include "traffic/moongen.h"

namespace nfvsb::obs {
namespace {

using core::Counter;

// ---- registry ------------------------------------------------------------

TEST(Registry, SnapshotIsSortedByPath) {
  Registry reg;
  Counter a, b;
  std::int64_t raw = 2;
  a += 3;
  b += 5;
  int o1 = 0, o2 = 0;
  reg.add_counter(&o1, "z/last", &a);
  reg.add_counter(&o2, "a/first", &b);
  reg.add_value(&o1, "m/mid", &raw);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0], (std::pair<std::string, std::uint64_t>{"a/first", 5}));
  EXPECT_EQ(snap[1], (std::pair<std::string, std::uint64_t>{"m/mid", 2}));
  EXPECT_EQ(snap[2], (std::pair<std::string, std::uint64_t>{"z/last", 3}));
}

TEST(Registry, DuplicatePathsGetStableSuffixes) {
  Registry reg;
  Counter a, b, c;
  int o1 = 0, o2 = 0, o3 = 0;
  reg.add_counter(&o1, "ring/r/drops", &a);
  reg.add_counter(&o2, "ring/r/drops", &b);
  reg.add_counter(&o3, "ring/r/drops", &c);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "ring/r/drops");
  EXPECT_EQ(snap[1].first, "ring/r/drops#2");
  EXPECT_EQ(snap[2].first, "ring/r/drops#3");
}

TEST(Registry, RemoveDropsOnlyThatOwner) {
  Registry reg;
  Counter a, b;
  int o1 = 0, o2 = 0;
  reg.add_counter(&o1, "one", &a);
  reg.add_counter(&o2, "two", &b);
  reg.add_queue(&o1, "q1", 8, [](const void*) { return std::size_t{0}; });
  reg.remove(&o1);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first, "two");
  EXPECT_TRUE(reg.queues().empty());
}

TEST(Registry, ScopeInstallsAndRestores) {
  EXPECT_EQ(core::metrics(), nullptr);
  Registry r1;
  {
    core::MetricsScope s1(&r1);
    EXPECT_EQ(core::metrics(), &r1);
    {
      core::MetricsScope s2(nullptr);  // mask: nested runs never
                                       // cross-register
      EXPECT_EQ(core::metrics(), nullptr);
    }
    EXPECT_EQ(core::metrics(), &r1);
  }
  EXPECT_EQ(core::metrics(), nullptr);
}

TEST(Registry, RingRegistersCountersAndDepthProbe) {
  Registry reg;
  pkt::PacketPool pool(4);  // outside the scope: not registered
  core::MetricsScope scope(&reg);
  {
    ring::SpscRing ring("r0", 4);
    EXPECT_EQ(reg.size(), 3u);  // enqueued, dequeued, drops
    ASSERT_EQ(reg.queues().size(), 1u);
    const Registry::Queue& q = reg.queues()[0];
    EXPECT_EQ(q.path, "ring/r0");
    EXPECT_EQ(q.capacity, 4u);
    EXPECT_EQ(q.depth(q.owner), 0u);
    ring.enqueue(pool.allocate());
    EXPECT_EQ(q.depth(q.owner), 1u);
    (void)ring.dequeue();
    const auto snap = reg.snapshot();
    const auto it = std::find_if(snap.begin(), snap.end(), [](const auto& e) {
      return e.first == "ring/r0/dequeued";
    });
    ASSERT_NE(it, snap.end());
    EXPECT_EQ(it->second, 1u);
  }
  EXPECT_EQ(reg.size(), 0u);  // destructor deregistered everything
  EXPECT_TRUE(reg.queues().empty());
}

TEST(Registry, VhostPortRegistersItsGuestToHostKicks) {
  Registry reg;
  pkt::PacketPool pool(4);  // outside the scope: not registered
  core::MetricsScope scope(&reg);
  const auto kicks = [&]() -> std::optional<std::uint64_t> {
    for (const auto& [path, value] : reg.snapshot()) {
      if (path == "port/vh/kicks") return value;
    }
    return std::nullopt;
  };
  {
    ring::VhostUserPort backend("vh");
    ring::Port guest("vh.guest", backend);
    ASSERT_TRUE(kicks());
    guest.tx(pool.allocate());
    guest.tx(pool.allocate());
    // The switch's own TX toward the guest rings no doorbell.
    backend.tx(pool.allocate());
    EXPECT_EQ(kicks(), 1u);
    drain(backend.in());
    drain(backend.out());
  }
  EXPECT_FALSE(kicks());  // deregistered with the port
}

// ---- queue-depth sampler -------------------------------------------------

TEST(QueueSampler, HistogramMatchesScriptedOccupancy) {
  Registry reg;
  core::MetricsScope scope(&reg);
  core::Simulator sim;
  pkt::PacketPool pool(16);
  ring::SpscRing ring("s", 8);
  QueueSampler sampler(sim, reg, core::from_us(10), core::from_us(100));
  // Occupancy timeline: 0 until 25 us, 2 until 55 us, 1 until 75 us, then 0.
  sim.post_at(core::from_us(25), [&] {
    ring.enqueue(pool.allocate());
    ring.enqueue(pool.allocate());
  });
  sim.post_at(core::from_us(55), [&] { (void)ring.dequeue(); });
  sim.post_at(core::from_us(75), [&] { (void)ring.dequeue(); });
  sim.run();
  // Samples at 10,20,...,100 us: depths 0,0,2,2,2,1,1,0,0,0.
  EXPECT_EQ(sampler.samples(), 10u);
  const auto& h = sampler.histograms().at("ring/s");
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min_value(), 0);
  EXPECT_EQ(h.max_value(), 2);
  EXPECT_EQ(h.quantile(0.5), 0);  // five of the ten samples are 0
  EXPECT_EQ(h.quantile(0.6), 1);  // the sixth and seventh are 1
  std::vector<std::pair<std::string, std::uint64_t>> summary;
  sampler.append_summary(summary);
  ASSERT_EQ(summary.size(), 3u);
  EXPECT_EQ(summary[0],
            (std::pair<std::string, std::uint64_t>{"ring/s/depth_samples", 10}));
  EXPECT_EQ(summary[1],
            (std::pair<std::string, std::uint64_t>{"ring/s/depth_p99", 2}));
  EXPECT_EQ(summary[2],
            (std::pair<std::string, std::uint64_t>{"ring/s/depth_max", 2}));
}

TEST(QueueSampler, FirstSampleIsOnePeriodIn) {
  Registry reg;
  core::Simulator sim;
  QueueSampler sampler(sim, reg, core::from_us(10), core::from_us(100));
  sim.run_until(core::from_us(10) - 1);
  EXPECT_EQ(sampler.samples(), 0u);
  sim.run_until(core::from_us(10));
  EXPECT_EQ(sampler.samples(), 1u);
}

// Past stop_at the sampler posts nothing more, so a simulator with no
// other work drains; a sample exactly at stop_at is still taken.
TEST(QueueSampler, StopsPostingPastStopAt) {
  Registry reg;
  core::Simulator sim;
  QueueSampler sampler(sim, reg, core::from_us(10), core::from_us(30));
  sim.run();
  EXPECT_EQ(sampler.samples(), 3u);  // 10, 20 and 30 us
  EXPECT_EQ(sim.now(), core::from_us(40));
  EXPECT_FALSE(sim.has_pending());
  EXPECT_EQ(sim.events_processed(), 4u);
}

// ---- trace recorder ------------------------------------------------------

TEST(TraceRecorder, JsonIsWellFormed) {
  core::Simulator sim;
  TraceRecorder tr(sim, TraceRecorder::Config{});
  const auto t = tr.track("switch/sut");
  tr.complete(t, "round", core::from_ns(10), core::from_ns(5), 32);
  tr.instant(t, "drop");
  tr.counter("ring/r0", 3);
  tr.async_begin(1, "ring/r0");
  tr.async_end(1, "ring/r0");
  const std::string j = tr.to_json();
  // Structural checks: brace/bracket balance and the required envelope.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['),
            std::count(j.begin(), j.end(), ']'));
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"displayTimeUnit\""), std::string::npos);
  // 10 ns = 0.01 us: the fixed-point formatter must not lose the fraction.
  EXPECT_NE(j.find("\"ts\":0.010000"), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(j.find("thread_name"), std::string::npos);
}

// The JSON depends only on the events recorded: the same events in two
// call orders give the same file, ordered by time, with a begin before an
// end at the same instant.
TEST(TraceRecorder, JsonOrderIsCanonical) {
  core::Simulator sim;
  TraceRecorder fwd(sim, TraceRecorder::Config{});
  TraceRecorder rev(sim, TraceRecorder::Config{});
  const auto t1 = fwd.track("nic/a/wire");
  const auto t2 = fwd.track("switch/sut");
  ASSERT_EQ(rev.track("nic/a/wire"), t1);
  ASSERT_EQ(rev.track("switch/sut"), t2);
  fwd.complete(t1, "wire", core::from_ns(20), core::from_ns(67), 7);
  fwd.async_end(3, "ring/a");
  fwd.async_begin(3, "ring/b");
  fwd.instant(t2, "drop", core::from_ns(10));
  fwd.async_begin(4, "ring/a", core::from_ns(10));
  rev.async_begin(4, "ring/a", core::from_ns(10));
  rev.instant(t2, "drop", core::from_ns(10));
  rev.async_begin(3, "ring/b");
  rev.async_end(3, "ring/a");
  rev.complete(t1, "wire", core::from_ns(20), core::from_ns(67), 7);
  const std::string j = fwd.to_json();
  EXPECT_EQ(j, rev.to_json());
  const auto b = j.find("\"ph\":\"b\",\"pid\":1,\"tid\":1,\"id\":3");
  const auto e = j.find("\"ph\":\"e\",\"pid\":1,\"tid\":1,\"id\":3");
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(e, std::string::npos);
  EXPECT_LT(b, e);  // both at 0 ns
  EXPECT_LT(e, j.find("\"ts\":0.010000"));
  EXPECT_LT(j.find("\"ts\":0.010000"), j.find("\"ts\":0.020000"));
}

// Data-path hooks, exercised end-to-end: every sampled packet's lifecycle
// slices must balance (each "b" closed by exactly one "e"), spans must have
// non-negative durations, and timestamps must be non-negative.
TEST(TraceHooks, LiveDataPathEmitsBalancedEvents) {
  core::Simulator sim;
  TraceRecorder::Config tc;
  tc.packet_sample_every = 1;  // trace every packet
  TraceRecorder tr(sim, tc);
  core::TraceInstall install(&tr);
  pkt::PacketPool pool(1 << 10);
  hw::NicPort a(sim, "a");
  hw::NicPort b(sim, "b");
  hw::Cable cable(sim, a, b);
  traffic::MoonGen::Config cfg;
  cfg.rate_pps = 1e6;
  traffic::MoonGen gen(sim, pool, cfg);
  gen.attach_tx_nic(a);
  traffic::MoonGen mon(sim, pool, traffic::MoonGen::Config{});
  mon.attach_rx_nic(b);
  gen.start_tx(0, core::from_us(100));
  sim.run();
  ASSERT_GT(tr.num_events(), 0u);
  std::map<std::uint64_t, int> open;
  for (const auto& e : tr.events()) {
    EXPECT_GE(e.ts, 0);
    if (e.ph == 'X') {
      EXPECT_GE(e.dur, 0);
    }
    if (e.ph == 'b') {
      EXPECT_EQ(open[e.id], 0) << "nested begin for id " << e.id;
      ++open[e.id];
    }
    if (e.ph == 'e') {
      EXPECT_EQ(open[e.id], 1) << "end without begin for id " << e.id;
      --open[e.id];
    }
  }
  for (const auto& [id, n] : open) {
    EXPECT_EQ(n, 0) << "unbalanced lifecycle for id " << id;
  }
}

// Trace ids are handed out in emit order across generators. Two guest
// generators whose rings' consumer stays busy (nothing reads them until
// the end) still emit each frame at its own instant while a tracer is
// installed, so their ids interleave as their emit times do.
TEST(TraceHooks, GuestGeneratorsDrawTraceIdsInEmitOrder) {
  core::Simulator sim;
  TraceRecorder::Config tc;
  tc.packet_sample_every = 1;
  TraceRecorder tr(sim, tc);
  core::TraceInstall install(&tr);
  pkt::PacketPool pool(1 << 10);
  ring::PtnetPort host_a("a");
  ring::PtnetPort host_b("b");
  ring::Port guest_a("a.guest", host_a);
  ring::Port guest_b("b.guest", host_b);
  host_a.in().set_consumer_busy(true);
  host_b.in().set_consumer_busy(true);
  traffic::MoonGen::Config cfg;
  cfg.rate_pps = 1e6;
  traffic::MoonGen gen_a(sim, pool, cfg);
  traffic::MoonGen gen_b(sim, pool, cfg);
  gen_a.attach_tx_guest(guest_a, 0);
  gen_b.attach_tx_guest(guest_b, 0);
  gen_a.start_tx(0, core::from_us(4));                   // 0, 1, 2, 3 us
  gen_b.start_tx(core::from_ns(500), core::from_us(4));  // 0.5 .. 3.5 us
  sim.run();
  EXPECT_EQ(sim.events_processed(), 8u);  // one per frame, busy or not
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto a = host_a.in().dequeue();
    auto b = host_b.in().dequeue();
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->trace_id, 2 * i + 1);
    EXPECT_EQ(b->trace_id, 2 * i + 2);
  }
}

TEST(TraceHooks, DequeueClosesResidentSlice) {
  core::Simulator sim;
  TraceRecorder tr(sim, TraceRecorder::Config{});
  core::TraceInstall install(&tr);
  pkt::PacketPool pool(4);
  ring::SpscRing ring("r", 4);
  auto p = pool.allocate();
  p->trace_id = tr.next_packet_id();
  ring.enqueue(std::move(p));
  (void)ring.dequeue();
  int begins = 0, ends = 0;
  for (const auto& e : tr.events()) {
    if (e.ph == 'b') ++begins;
    if (e.ph == 'e') ++ends;
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

// ---- observer transparency ----------------------------------------------

// The layer's core contract: observation must not perturb the measurement.
TEST(ObservedScenario, MeasuresIdenticallyToUnobserved) {
  scenario::ScenarioConfig cfg;
  cfg.kind = scenario::Kind::kP2p;
  cfg.sut = switches::SwitchType::kVpp;
  cfg.warmup = core::from_ms(1);
  cfg.measure = core::from_ms(2);
  const scenario::ScenarioResult plain = scenario::run_scenario(cfg);
  scenario::ScenarioConfig ocfg = cfg;
  ocfg.observe = true;
  ocfg.queue_sample_period = core::from_us(10);
  const scenario::ScenarioResult observed = scenario::run_scenario(ocfg);

  EXPECT_DOUBLE_EQ(plain.fwd.gbps, observed.fwd.gbps);
  EXPECT_DOUBLE_EQ(plain.fwd.mpps, observed.fwd.mpps);
  EXPECT_EQ(plain.fwd.rx_packets, observed.fwd.rx_packets);
  EXPECT_EQ(plain.offered_packets, observed.offered_packets);
  EXPECT_EQ(plain.delivered_packets, observed.delivered_packets);
  EXPECT_EQ(plain.nic_imissed, observed.nic_imissed);
  EXPECT_EQ(plain.sut_wasted_work, observed.sut_wasted_work);

  EXPECT_TRUE(plain.counters.empty());
  ASSERT_FALSE(observed.counters.empty());
  EXPECT_TRUE(
      std::is_sorted(observed.counters.begin(), observed.counters.end()));
  // The counter plane must agree with the scalar result fields.
  const auto value_of = [&](const std::string& path) -> std::uint64_t {
    for (const auto& [p, v] : observed.counters) {
      if (p == path) return v;
    }
    ADD_FAILURE() << "missing counter " << path;
    return 0;
  };
  EXPECT_EQ(value_of("gen/moongen.1/tx_sent"), observed.offered_packets);
  EXPECT_GT(value_of("switch/sut/rounds"), 0u);
  // Sampler summaries are folded into the same counter list.
  const bool has_depth_summary = std::any_of(
      observed.counters.begin(), observed.counters.end(),
      [](const auto& e) { return e.first.ends_with("/depth_samples"); });
  EXPECT_TRUE(has_depth_summary);
  EXPECT_EQ(observed.offered_packets, observed.accounted_packets());
}

// Every direction is measured by one MoonGen monitor (origin 9) of its
// own, never by its generator: a monitor sends nothing, and the
// generators' tx_sent rows add up to the offered load. VALE covers the
// pkt-gen generator in a guest.
class OneMonitorPerDirection
    : public ::testing::TestWithParam<
          std::tuple<scenario::Kind, switches::SwitchType, bool>> {};

TEST_P(OneMonitorPerDirection, MonitorsOnlyReceive) {
  const auto [kind, sut, bidi] = GetParam();
  scenario::ScenarioConfig cfg;
  cfg.kind = kind;
  cfg.sut = sut;
  cfg.bidirectional = bidi;
  cfg.warmup = core::from_ms(1);
  cfg.measure = core::from_ms(2);
  cfg.observe = true;
  const scenario::ScenarioResult r = scenario::run_scenario(cfg);
  ASSERT_FALSE(r.skipped.has_value()) << *r.skipped;
  std::size_t monitors = 0;
  std::size_t generators = 0;
  std::uint64_t generated = 0;
  for (const auto& [path, v] : r.counters) {
    if (!path.starts_with("gen/") ||
        path.find("/tx_sent") == std::string::npos) {
      continue;
    }
    if (path.starts_with("gen/moongen.9/")) {
      ++monitors;
      EXPECT_EQ(v, 0u) << path;
    } else {
      ++generators;
      generated += v;
    }
  }
  const std::size_t directions = bidi ? 2 : 1;
  EXPECT_EQ(monitors, directions);
  EXPECT_EQ(generators, directions);
  EXPECT_EQ(generated, r.offered_packets);
  EXPECT_GT(r.fwd.rx_packets, 0u);
  if (bidi) {
    EXPECT_GT(r.rev.rx_packets, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsSwitchesDirections, OneMonitorPerDirection,
    ::testing::Combine(
        ::testing::Values(scenario::Kind::kP2p, scenario::Kind::kP2v,
                          scenario::Kind::kV2v, scenario::Kind::kLoopback),
        ::testing::Values(switches::SwitchType::kVpp,
                          switches::SwitchType::kVale),
        ::testing::Bool()),
    [](const auto& info) {
      return std::string(scenario::to_string(std::get<0>(info.param))) +
             "_" + switches::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_bidi" : "_uni");
    });

TEST(ObservedCampaign, JsonIsThreadCountIndependent) {
  campaign::Campaign c("obs-grid", 0x5eed);
  for (auto sw :
       {switches::SwitchType::kVpp, switches::SwitchType::kOvsDpdk}) {
    for (std::uint32_t frame : {64u, 256u}) {
      scenario::ScenarioConfig cfg;
      cfg.kind = scenario::Kind::kP2p;
      cfg.sut = sw;
      cfg.frame_bytes = frame;
      cfg.warmup = core::from_ms(1);
      cfg.measure = core::from_ms(2);
      cfg.observe = true;
      cfg.queue_sample_period = core::from_us(50);
      c.add(std::string(switches::to_string(sw)) + "/" +
                std::to_string(frame) + "B",
            cfg);
    }
  }
  const auto render = [&](int threads) {
    campaign::RunnerOptions o;
    o.threads = threads;
    campaign::CampaignRunner runner(o);
    const campaign::ResultSet rs = runner.run(c);
    std::string out;
    for (const auto& pr : rs.all()) {
      out += pr.label + "=" + campaign::result_to_json(pr.result) + "\n";
    }
    return out;
  };
  const std::string one = render(1);
  const std::string eight = render(8);
  EXPECT_EQ(one, eight);
  EXPECT_NE(one.find("\"counters\""), std::string::npos);
}

// ---- serialization -------------------------------------------------------

TEST(Serialize, UnobservedJsonKeepsPreObsFormat) {
  scenario::ScenarioResult r;
  const std::string j = campaign::result_to_json(r);
  EXPECT_EQ(j.find("counters"), std::string::npos);
  EXPECT_EQ(j.find("cleared_packets"), std::string::npos);
  scenario::ScenarioConfig cfg;
  const std::string cj = campaign::config_to_json(cfg);
  EXPECT_EQ(cj.find("observe"), std::string::npos);
  EXPECT_EQ(cj.find("trace"), std::string::npos);
}

}  // namespace
}  // namespace nfvsb::obs
