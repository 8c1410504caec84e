// Micro-benchmarks of the data-path building blocks (google-benchmark):
// flow-key extraction, EMC/megaflow lookup, MAC learning table, histogram
// recording, ring enqueue/dequeue. These quantify the real cost of the
// functional structures the simulation runs per packet.
#include <benchmark/benchmark.h>

#include "core/event_queue.h"
#include "core/simulator.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "stats/histogram.h"
#include "switches/ovs/emc.h"
#include "switches/ovs/megaflow.h"
#include "switches/vale/mac_table.h"

namespace {

using namespace nfvsb;

pkt::PacketPool& bench_pool() {
  static pkt::PacketPool pool(1024);
  return pool;
}

void BM_CraftFrame(benchmark::State& state) {
  auto p = bench_pool().allocate();
  pkt::FrameSpec spec;
  spec.frame_bytes = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    pkt::craft_udp_frame(*p, spec);
    benchmark::DoNotOptimize(p->data());
  }
}
BENCHMARK(BM_CraftFrame)->Arg(64)->Arg(1024);

void BM_FlowKeyExtract(benchmark::State& state) {
  auto p = bench_pool().allocate();
  pkt::craft_udp_frame(*p, pkt::FrameSpec{});
  for (auto _ : state) {
    auto key = switches::ovs::FlowKey::from_frame(0, p->bytes());
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_FlowKeyExtract);

void BM_EmcLookupHit(benchmark::State& state) {
  auto p = bench_pool().allocate();
  pkt::craft_udp_frame(*p, pkt::FrameSpec{});
  switches::ovs::Emc emc;
  const auto key = switches::ovs::FlowKey::from_frame(0, p->bytes());
  emc.insert(key, switches::ovs::Action::output(1));
  for (auto _ : state) {
    auto hit = emc.lookup(key);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_EmcLookupHit);

void BM_MegaflowLookup(benchmark::State& state) {
  auto p = bench_pool().allocate();
  pkt::craft_udp_frame(*p, pkt::FrameSpec{});
  switches::ovs::MegaflowCache mf;
  const auto key = switches::ovs::FlowKey::from_frame(0, p->bytes());
  // state.range(0) subtables force tuple-space probing depth.
  for (int i = 0; i < state.range(0); ++i) {
    switches::ovs::FlowMask mask;
    mask.in_port = true;
    mask.eth_dst = (i % 2) == 0;
    mask.ip_dst = (i % 3) == 0;
    mask.tp_dst = (i % 5) == 0;
    mask.eth_type = (i % 7) == 0;
    switches::ovs::FlowKey k = key;
    k.in_port = static_cast<std::uint32_t>(i + 1);
    mf.insert(mask, k, switches::ovs::Action::output(1));
  }
  switches::ovs::FlowMask match_mask;
  match_mask.in_port = true;
  mf.insert(match_mask, key, switches::ovs::Action::output(2));
  for (auto _ : state) {
    auto hit = mf.lookup(key);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_MegaflowLookup)->Arg(1)->Arg(8)->Arg(24);

void BM_MacTableLearnLookup(benchmark::State& state) {
  switches::vale::MacTable table(1024);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto mac = pkt::MacAddress::from_u64(0x020000000000ULL + (i & 0xff));
    table.learn(mac, i & 3, static_cast<core::SimTime>(i));
    auto port = table.lookup(mac, static_cast<core::SimTime>(i));
    benchmark::DoNotOptimize(port);
    ++i;
  }
}
BENCHMARK(BM_MacTableLearnLookup);

void BM_EventSchedulePop(benchmark::State& state) {
  core::EventQueue q;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  core::SimTime now = 0;
  for (int i = 0; i < 1024; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    (void)q.schedule(
        now + 1 + static_cast<core::SimTime>((rng >> 33) % 1'000'000), [] {});
  }
  for (auto _ : state) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    (void)q.schedule(
        now + 1 + static_cast<core::SimTime>((rng >> 33) % 1'000'000), [] {});
    auto fired = q.pop();
    now = fired.time;
    benchmark::DoNotOptimize(now);
  }
  q.clear();
}
BENCHMARK(BM_EventSchedulePop);

void BM_EventCancel(benchmark::State& state) {
  core::EventQueue q;
  core::SimTime now = 0;
  for (auto _ : state) {
    const auto id = q.schedule(now + 1'000'000, [] {});
    q.cancel(id);  // O(1) slot+generation invalidation
    benchmark::DoNotOptimize(id);
    ++now;
  }
  q.clear();
}
BENCHMARK(BM_EventCancel);

void BM_RecurringTimer(benchmark::State& state) {
  core::Simulator sim;
  std::uint64_t fired = 0;
  (void)sim.schedule_every(0, 67'200, core::EventFn([&fired] { ++fired; }));
  core::SimTime horizon = 0;
  for (auto _ : state) {
    horizon += core::from_us(10);
    sim.run_until(horizon);
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_RecurringTimer);

void BM_HistogramAdd(benchmark::State& state) {
  stats::Histogram h;
  std::uint64_t i = 1;
  for (auto _ : state) {
    h.add(static_cast<core::SimDuration>(i * 997 % 10'000'000));
    ++i;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramAdd);

}  // namespace

BENCHMARK_MAIN();
