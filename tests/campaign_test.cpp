// Campaign subsystem tests: deterministic seed derivation, the parallel
// runner's bit-identical-results contract (1 thread vs N threads), per-point
// error isolation, and the frozen JSON result format.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "campaign/campaign.h"
#include "campaign/runner.h"
#include "campaign/seed.h"
#include "campaign/serialize.h"

namespace {

using namespace nfvsb;

// ---------------------------------------------------------------------------
// Seed derivation.

TEST(CampaignSeed, SplitmixKnownVector) {
  // First output of a splitmix64 stream seeded with 0 (reference vector
  // from the original public-domain implementation).
  EXPECT_EQ(campaign::splitmix64(0), 0xe220a8397b1dcdafULL);
}

TEST(CampaignSeed, DeriveIsDeterministic) {
  static_assert(campaign::derive_seed(1, 2) == campaign::derive_seed(1, 2),
                "derive_seed must be constexpr and pure");
  EXPECT_EQ(campaign::derive_seed(0x5eed, 7),
            campaign::derive_seed(0x5eed, 7));
}

TEST(CampaignSeed, DistinctAcrossIndicesAndCampaigns) {
  // Adjacent indices and adjacent campaign seeds must not collide — the
  // whole point of hashing is that point 0 and point 1 get unrelated RNG
  // streams even though the inputs differ by one bit.
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_NE(campaign::derive_seed(0x5eed, i),
              campaign::derive_seed(0x5eed, i + 1));
    EXPECT_NE(campaign::derive_seed(0x5eed, i),
              campaign::derive_seed(0x5eee, i));
  }
  // Index must not be interchangeable with the campaign seed.
  EXPECT_NE(campaign::derive_seed(1, 2), campaign::derive_seed(2, 1));
}

// ---------------------------------------------------------------------------
// Campaign declaration.

TEST(Campaign, AddAssignsSequentialIndices) {
  campaign::Campaign c("t", 1);
  scenario::ScenarioConfig cfg;
  EXPECT_EQ(c.add("a", cfg), 0u);
  EXPECT_EQ(c.add("b", cfg), 1u);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.point(1).label, "b");
}

TEST(Campaign, DuplicateLabelThrows) {
  campaign::Campaign c("t", 1);
  scenario::ScenarioConfig cfg;
  c.add("a", cfg);
  EXPECT_THROW(c.add("a", cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Frozen result format. Campaign JSON is compared byte for byte with the
// committed goldens, so the serializer's output is pinned literally here.

TEST(CampaignSerialize, ResultJsonFormatIsFrozen) {
  scenario::ScenarioResult r;
  r.skipped = "tab\there \"quoted\"";
  r.fwd.gbps = 0.1;  // not exactly representable: %.17g shows every digit
  r.fwd.mpps = 14.880952380952381;
  r.fwd.rx_packets = 123456789;
  r.rev.gbps = 1.0 / 3.0;
  r.lat_samples = 625;
  r.lat_p99_us = 1e-17;
  r.nic_imissed = 42;
  r.sut_wasted_work = 7;
  r.vnf_discards = 9;
  r.offered_packets = 1000000;
  r.delivered_packets = 999951;
  r.cleared_packets = 3;
  r.counters = {{"ring/a/drops", 1}, {"switch/sut/rounds", 123456}};
  EXPECT_EQ(
      campaign::result_to_json(r),
      "{\"skipped\":\"tab\\there \\\"quoted\\\"\","
      "\"fwd_gbps\":0.10000000000000001,\"fwd_mpps\":14.880952380952381,"
      "\"fwd_rx_packets\":123456789,"
      "\"rev_gbps\":0.33333333333333331,\"rev_mpps\":0,"
      "\"rev_rx_packets\":0,\"lat_samples\":625,\"lat_avg_us\":0,"
      "\"lat_std_us\":0,\"lat_median_us\":0,"
      "\"lat_p99_us\":1.0000000000000001e-17,\"lat_min_us\":0,"
      "\"lat_max_us\":0,\"nic_imissed\":42,\"sut_wasted_work\":7,"
      "\"sut_discards\":0,\"vnf_wasted_work\":0,\"vnf_discards\":9,"
      "\"offered_packets\":1000000,\"delivered_packets\":999951,"
      "\"gen_tx_failures\":0,\"cleared_packets\":3,"
      "\"counters\":{\"ring/a/drops\":1,\"switch/sut/rounds\":123456}}");
}

// ---------------------------------------------------------------------------
// Runner determinism and error isolation.

campaign::RunnerOptions with_threads(int threads) {
  campaign::RunnerOptions o;
  o.threads = threads;
  return o;
}

campaign::Campaign small_campaign(std::uint64_t seed) {
  campaign::Campaign c("golden", seed);
  for (auto sw : {switches::SwitchType::kVpp, switches::SwitchType::kVale,
                  switches::SwitchType::kSnabb}) {
    for (std::uint32_t frame : {64u, 1024u}) {
      scenario::ScenarioConfig cfg;
      cfg.kind = scenario::Kind::kP2p;
      cfg.sut = sw;
      cfg.frame_bytes = frame;
      cfg.warmup = core::from_ms(1);
      cfg.measure = core::from_ms(3);
      c.add(std::string(switches::to_string(sw)) + "/" +
                std::to_string(frame),
            cfg);
    }
  }
  return c;
}

TEST(CampaignRunner, GoldenBitIdenticalAcrossThreadCounts) {
  const auto c = small_campaign(0xfeedULL);

  campaign::CampaignRunner serial(with_threads(1));
  campaign::CampaignRunner wide(with_threads(4));
  const auto a = serial.run(c);
  const auto b = wide.run(c);

  ASSERT_EQ(a.size(), c.size());
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& pa = a.all()[i];
    const auto& pb = b.all()[i];
    EXPECT_EQ(pa.label, pb.label);
    EXPECT_EQ(pa.cfg.seed, campaign::derive_seed(c.seed(), i));
    EXPECT_EQ(pb.cfg.seed, pa.cfg.seed);
    // Bit-identical results: the serialized form must match byte for byte.
    EXPECT_EQ(campaign::result_to_json(pa.result),
              campaign::result_to_json(pb.result))
        << "point " << pa.label << " diverged between 1 and 4 threads";
  }
}

TEST(CampaignRunner, SeedChangesResults) {
  // Sanity check that the golden test above is not vacuous: a different
  // campaign seed must actually perturb at least one measured value.
  campaign::CampaignRunner runner(with_threads(2));
  const auto a = runner.run(small_campaign(0xfeedULL));
  const auto b = runner.run(small_campaign(0xf00dULL));
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (campaign::result_to_json(a.all()[i].result) !=
        campaign::result_to_json(b.all()[i].result)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(CampaignRunner, ThrowingPointIsRecordedAndOthersRunClean) {
  const auto clean = small_campaign(0x7ULL);
  campaign::Campaign faulty("golden", 0x7ULL);
  const std::size_t bad = 3;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    scenario::ScenarioConfig cfg = clean.point(i).cfg;
    if (i == bad) {
      cfg.tune_sut = [](switches::SwitchBase&) {
        throw std::runtime_error("tune hook failed");
      };
    }
    faulty.add(clean.point(i).label, cfg);
  }

  campaign::CampaignRunner runner(with_threads(2));
  const auto a = runner.run(clean);
  const auto b = runner.run(faulty);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& got = b.all()[i].result;
    if (i == bad) {
      ASSERT_TRUE(got.skipped.has_value());
      EXPECT_EQ(*got.skipped, "error: tune hook failed");
      EXPECT_EQ(got.offered_packets, 0u);
    } else {
      EXPECT_EQ(campaign::result_to_json(got),
                campaign::result_to_json(a.all()[i].result))
          << "point " << a.all()[i].label;
    }
  }
}

TEST(CampaignRunner, ResultSetLookup) {
  const auto c = small_campaign(0x1ULL);
  campaign::CampaignRunner runner(with_threads(2));
  const auto rs = runner.run(c);
  EXPECT_TRUE(rs.contains("VPP/64"));
  EXPECT_NO_THROW((void)rs.at("VPP/64"));
  EXPECT_FALSE(rs.contains("nope"));
  EXPECT_THROW((void)rs.at("nope"), std::out_of_range);
}

TEST(CampaignRunner, WriteResultsJson) {
  const auto c = small_campaign(0x2ULL);
  campaign::CampaignRunner runner(with_threads(2));
  const auto rs = runner.run(c);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "nfvsb-json-test" /
       "out.json")
          .string();
  ASSERT_TRUE(campaign::write_results_json(path, c, rs));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"campaign\":\"golden\""), std::string::npos);
  EXPECT_NE(text.find("VPP/64"), std::string::npos);
  std::filesystem::remove_all(
      std::filesystem::path(::testing::TempDir()) / "nfvsb-json-test");
}

}  // namespace
