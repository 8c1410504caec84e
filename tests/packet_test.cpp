// Packet pool and handle lifecycle, pool reservations and unbuilt frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "pkt/crafting.h"
#include "pkt/frame.h"
#include "pkt/headers.h"
#include "pkt/packet_pool.h"

namespace nfvsb::pkt {
namespace {

TEST(PacketPool, AllocateAndAutoFree) {
  PacketPool pool(4);
  {
    PacketHandle p = pool.allocate();
    ASSERT_TRUE(p);
    EXPECT_EQ(pool.outstanding(), 1u);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(PacketPool, ExhaustionReturnsEmptyHandle) {
  PacketPool pool(2);
  PacketHandle a = pool.allocate();
  PacketHandle b = pool.allocate();
  PacketHandle c = pool.allocate();
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
  EXPECT_FALSE(c);
  EXPECT_EQ(pool.alloc_failures(), 1u);
  EXPECT_EQ(pool.available(), 0u);
}

TEST(PacketPool, RecyclesFreedBuffers) {
  PacketPool pool(1);
  for (int i = 0; i < 100; ++i) {
    PacketHandle p = pool.allocate();
    ASSERT_TRUE(p) << i;
  }
  EXPECT_EQ(pool.alloc_failures(), 0u);
}

TEST(PacketPool, MetadataResetOnAllocate) {
  PacketPool pool(1);
  {
    PacketHandle p = pool.allocate();
    p->resize(128);
    p->seq = 99;
    p->probe_id = 5;
    p->tx_timestamp = 123;
    p->note_copy();
  }
  PacketHandle p = pool.allocate();
  EXPECT_EQ(p->size(), 0u);
  EXPECT_EQ(p->seq, 0u);
  EXPECT_EQ(p->probe_id, 0u);
  EXPECT_EQ(p->tx_timestamp, core::kNoTimestamp);
  EXPECT_EQ(p->sw_timestamp, core::kNoTimestamp);
  EXPECT_EQ(p->trace_id, 0u);
  EXPECT_EQ(p->copy_count, 0u);
}

TEST(PacketPool, CloneCopiesPayloadAndBumpsCopyCount) {
  PacketPool pool(2);
  PacketHandle a = pool.allocate();
  a->resize(64);
  a->data()[0] = 0xab;
  a->data()[63] = 0xcd;
  a->seq = 7;
  PacketHandle b = pool.clone(*a);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->size(), 64u);
  EXPECT_EQ(b->data()[0], 0xab);
  EXPECT_EQ(b->data()[63], 0xcd);
  EXPECT_EQ(b->seq, 7u);
  EXPECT_EQ(b->copy_count, a->copy_count + 1);
}

TEST(PacketHandle, MoveTransfersOwnership) {
  PacketPool pool(1);
  PacketHandle a = pool.allocate();
  Packet* raw = a.get();
  PacketHandle b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT: moved-from check is the point
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(pool.outstanding(), 1u);
}

TEST(PacketHandle, MoveAssignFreesPrevious) {
  PacketPool pool(2);
  PacketHandle a = pool.allocate();
  PacketHandle b = pool.allocate();
  EXPECT_EQ(pool.outstanding(), 2u);
  a = std::move(b);
  EXPECT_EQ(pool.outstanding(), 1u);
}

TEST(PacketHandle, ReleaseDetaches) {
  PacketPool pool(1);
  PacketHandle a = pool.allocate();
  Packet* raw = a.release();
  EXPECT_FALSE(a);
  EXPECT_EQ(pool.outstanding(), 1u);  // still out; re-wrap to free
  PacketHandle b{raw};
  b.reset();
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(Packet, ResizeWithinBounds) {
  PacketPool pool(1);
  PacketHandle p = pool.allocate();
  p->resize(kMaxFrameBytes);
  EXPECT_EQ(p->size(), kMaxFrameBytes);
  EXPECT_EQ(p->bytes().size(), kMaxFrameBytes);
}

TEST(PacketPool, SlabIsContiguous) {
  // Storage is one slab of fixed 1600-byte buffers: every allocated packet
  // sits at a sizeof(Packet) multiple from the slab base.
  PacketPool pool(32);
  std::vector<PacketHandle> held;
  for (int i = 0; i < 32; ++i) {
    auto p = pool.allocate();
    ASSERT_TRUE(p);
    held.push_back(std::move(p));
  }
  const auto* base = reinterpret_cast<const unsigned char*>(held[0].get());
  const auto* lo = base;
  const auto* hi = base;
  for (const auto& h : held) {
    const auto* q = reinterpret_cast<const unsigned char*>(h.get());
    lo = std::min(lo, q);
    hi = std::max(hi, q);
    EXPECT_TRUE(pool.owns(h.get()));
  }
  EXPECT_EQ(static_cast<std::size_t>(hi - lo) % sizeof(Packet), 0u);
  EXPECT_EQ(static_cast<std::size_t>(hi - lo), 31 * sizeof(Packet));
}

std::uintptr_t addr(const PacketHandle& h) {
  return reinterpret_cast<std::uintptr_t>(h.get());
}

TEST(PacketPool, FirstBuffersComeInSlabOrder) {
  // Buffers are constructed on first use, one slot after the other.
  PacketPool pool(8);
  std::vector<PacketHandle> held;
  for (int i = 0; i < 4; ++i) held.push_back(pool.allocate());
  for (std::size_t i = 1; i < held.size(); ++i) {
    EXPECT_EQ(addr(held[i]) - addr(held[i - 1]), sizeof(Packet));
  }
}

TEST(PacketPool, MostRecentlyFreedIsAllocatedNext) {
  // LIFO reuse before any never-used slot: the buffer sequence a scenario
  // sees does not depend on when slots are constructed.
  PacketPool pool(8);
  PacketHandle a = pool.allocate();
  PacketHandle b = pool.allocate();
  PacketHandle c = pool.allocate();
  const std::uintptr_t next_fresh = addr(c) + sizeof(Packet);
  const std::uintptr_t b_at = addr(b);
  const std::uintptr_t c_at = addr(c);
  b.reset();
  c.reset();
  PacketHandle again_c = pool.allocate();  // freed last, reused first
  EXPECT_EQ(addr(again_c), c_at);
  PacketHandle again_b = pool.allocate();
  EXPECT_EQ(addr(again_b), b_at);
  PacketHandle fresh = pool.allocate();  // free list empty: next new slot
  EXPECT_EQ(addr(fresh), next_fresh);
  EXPECT_TRUE(pool.owns(fresh.get()));
}

TEST(PacketPool, ExhaustsAtExactlyCapacityAfterReuse) {
  PacketPool pool(16);
  for (int cycle = 0; cycle < 5; ++cycle) {
    std::vector<PacketHandle> held;
    for (int i = 0; i < 10 + cycle; ++i) held.push_back(pool.allocate());
  }
  std::vector<PacketHandle> held;
  for (int i = 0; i < 16; ++i) {
    held.push_back(pool.allocate());
    ASSERT_TRUE(held.back()) << "allocation " << i;
  }
  EXPECT_EQ(pool.outstanding(), 16u);
  EXPECT_FALSE(pool.allocate());
  EXPECT_EQ(pool.alloc_failures(), 1u);
  held.pop_back();
  EXPECT_TRUE(pool.allocate());
}

TEST(PacketPool, OwnsRejectsForeignPointers) {
  PacketPool a(2);
  PacketPool b(2);
  PacketHandle pa = a.allocate();
  PacketHandle pb = b.allocate();
  EXPECT_TRUE(a.owns(pa.get()));
  EXPECT_FALSE(a.owns(pb.get()));
  EXPECT_FALSE(a.owns(nullptr));
}

TEST(PacketPool, ManyPacketsStressWithVector) {
  PacketPool pool(256);
  std::vector<PacketHandle> held;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 200; ++i) {
      auto p = pool.allocate();
      ASSERT_TRUE(p);
      held.push_back(std::move(p));
    }
    EXPECT_EQ(pool.outstanding(), 200u);
    held.clear();
    EXPECT_EQ(pool.outstanding(), 0u);
  }
}

// A reservation counts as a handed-out buffer: exhaustion comes at the
// same occupancy, and turning one into a buffer never fails.
TEST(PacketPool, ReservationsCountAsOccupancy) {
  PacketPool pool(3);
  ASSERT_TRUE(pool.reserve());
  ASSERT_TRUE(pool.reserve());
  auto p = pool.allocate();
  ASSERT_TRUE(p);
  EXPECT_EQ(pool.outstanding(), 3u);
  EXPECT_FALSE(pool.reserve());
  EXPECT_FALSE(pool.allocate());
  EXPECT_EQ(pool.alloc_failures(), 2u);
  EXPECT_EQ(pool.handed_out(), 1u);
  auto q = pool.allocate_reserved();
  ASSERT_TRUE(q);
  EXPECT_EQ(pool.outstanding(), 3u);
  EXPECT_EQ(pool.handed_out(), 2u);
  pool.release_reservation();
  EXPECT_EQ(pool.outstanding(), 2u);
  p.reset();
  q.reset();
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(PacketPool, FullPoolReclaimsBeforeReservingOrFailing) {
  PacketPool pool(1);
  bool reserved = pool.reserve();
  ASSERT_TRUE(reserved);
  int reclaims = 0;
  pool.set_reclaim([&] {
    ++reclaims;
    if (reserved) {
      pool.release_reservation();
      reserved = false;
    }
  });
  EXPECT_TRUE(pool.reserve());
  EXPECT_EQ(reclaims, 1);
  EXPECT_FALSE(pool.reserve());
  EXPECT_EQ(reclaims, 2);
  pool.release_reservation();
}

FrameSpec multi_flow_spec() {
  FrameSpec spec;
  spec.frame_bytes = 128;
  spec.src_port = 1000;
  spec.dst_port = 2000;
  return spec;
}

// A recipe writes byte for byte the frame a generator crafted by hand, and
// reads the 5-tuple RSS hashes without building the frame.
TEST(FrameRecipe, BuildsTheCraftedFrameAndKnowsItsTuple) {
  const FrameSpec spec = multi_flow_spec();
  const FrameRecipe recipe(spec, 8, 7);
  PacketPool pool(4);
  for (std::uint64_t seq : {1u, 2u, 8u, 9u, 12345u}) {
    auto built = pool.allocate();
    FrameMeta meta;
    meta.seq = seq;
    recipe.build(*built, meta);
    FrameSpec flow = spec;
    flow.src_port = static_cast<std::uint16_t>(1000 + (seq - 1) % 8);
    auto crafted = pool.allocate();
    craft_udp_frame(*crafted, flow);
    write_payload_seq(*crafted, seq);
    ASSERT_EQ(built->size(), crafted->size());
    EXPECT_EQ(std::memcmp(built->data(), crafted->data(), built->size()), 0);
    EXPECT_EQ(built->seq, seq);
    EXPECT_EQ(built->origin, 7u);
    EXPECT_EQ(recipe.five_tuple(seq), parse_five_tuple(built->bytes()));
  }
}

// An unbuilt frame holds its reservation until it is built or dies, and
// answers what the wire and RSS ask without building.
TEST(Frame, UnbuiltUntilReadAndGivesItsReservationBack) {
  const FrameRecipe recipe(multi_flow_spec(), 8, 3);
  PacketPool pool(2);
  ASSERT_TRUE(pool.reserve());
  Frame f(recipe, pool, 10);
  EXPECT_TRUE(f);
  EXPECT_FALSE(f.built());
  EXPECT_EQ(f.seq(), 10u);
  EXPECT_EQ(f.size(), 128u);
  EXPECT_EQ(f.probe_id(), 0u);
  EXPECT_EQ(f.five_tuple(), recipe.five_tuple(10));
  EXPECT_EQ(pool.outstanding(), 1u);
  EXPECT_EQ(pool.handed_out(), 0u);
  Frame moved = std::move(f);
  EXPECT_FALSE(f);  // NOLINT: moved-from is empty by contract
  PacketHandle p = moved.take();
  EXPECT_EQ(pool.handed_out(), 1u);
  EXPECT_EQ(p->seq, 10u);
  EXPECT_EQ(p->origin, 3u);
  EXPECT_EQ(pool.outstanding(), 1u);
  p.reset();
  {
    ASSERT_TRUE(pool.reserve());
    Frame dropped(recipe, pool, 11);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.handed_out(), 1u);  // the dropped frame was never built
}

}  // namespace
}  // namespace nfvsb::pkt
