// VALE's source-MAC learning table.
#include <gtest/gtest.h>

#include "switches/vale/mac_table.h"

namespace nfvsb::switches::vale {
namespace {

pkt::MacAddress mac(std::uint64_t v) { return pkt::MacAddress::from_u64(v); }

TEST(MacTable, LearnThenLookup) {
  MacTable t;
  t.learn(mac(0x02aabbccddee), 3, 0);
  const auto port = t.lookup(mac(0x02aabbccddee), 1);
  ASSERT_TRUE(port);
  EXPECT_EQ(*port, 3u);
  EXPECT_EQ(t.entries(), 1u);
}

TEST(MacTable, UnknownMacMisses) {
  MacTable t;
  EXPECT_FALSE(t.lookup(mac(0x020000000001), 0));
}

TEST(MacTable, RelearnMovesPort) {
  MacTable t;
  t.learn(mac(1), 0, 0);
  t.learn(mac(1), 5, 10);
  EXPECT_EQ(*t.lookup(mac(1), 10), 5u);
  EXPECT_EQ(t.entries(), 1u);
}

TEST(MacTable, AgingExpiresEntries) {
  MacTable t(64, core::from_sec(1));
  t.learn(mac(1), 2, 0);
  EXPECT_TRUE(t.lookup(mac(1), core::from_ms(500)));
  EXPECT_FALSE(t.lookup(mac(1), core::from_sec(2)));
}

TEST(MacTable, MulticastNeverLearnedOrMatched) {
  MacTable t;
  t.learn(mac(0x0100000000ffULL), 1, 0);  // multicast bit set
  EXPECT_EQ(t.entries(), 0u);
  EXPECT_FALSE(t.lookup(mac(0x0100000000ffULL), 0));
  EXPECT_FALSE(t.lookup(mac(0xffffffffffffULL), 0));  // broadcast
}

TEST(MacTable, ManyEntriesAllRetrievable) {
  MacTable t(4096);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    t.learn(mac(0x020000000000ULL + i), i % 4, 0);
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const auto p = t.lookup(mac(0x020000000000ULL + i), 1);
    ASSERT_TRUE(p) << i;
    EXPECT_EQ(*p, i % 4);
  }
}

TEST(MacTable, StaleSlotsReusedUnderPressure) {
  MacTable t(16, core::from_ms(1));
  for (std::uint64_t i = 0; i < 200; ++i) {
    // Each learn happens after the previous entries expired.
    t.learn(mac(0x020000000000ULL + i),
            1, static_cast<core::SimTime>(i) * core::from_ms(10));
  }
  // The most recent entry must be found (at its learn time); older expired.
  EXPECT_TRUE(t.lookup(mac(0x020000000000ULL + 199), 199 * core::from_ms(10)));
  EXPECT_FALSE(t.lookup(mac(0x020000000000ULL + 120), 199 * core::from_ms(10)));
}

}  // namespace
}  // namespace nfvsb::switches::vale
