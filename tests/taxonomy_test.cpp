// Taxonomy data (Tables 1/2/5) and report rendering.
#include <gtest/gtest.h>

#include "scenario/report.h"
#include "scenario/taxonomy_tables.h"
#include "taxonomy/taxonomy.h"

namespace nfvsb::taxonomy {
namespace {

TEST(Taxonomy, SevenProfilesAllSwitchesCovered) {
  EXPECT_EQ(profiles().size(), 7u);
  for (auto t : switches::kAllSwitches) {
    EXPECT_EQ(profile(t).type, t);
  }
}

TEST(Taxonomy, Table1FactsFromThePaper) {
  EXPECT_EQ(profile(switches::SwitchType::kSnabb).processing,
            ProcessingModel::kPipeline);  // the only pure pipeline
  EXPECT_EQ(profile(switches::SwitchType::kBess).processing,
            ProcessingModel::kBoth);
  EXPECT_EQ(profile(switches::SwitchType::kOvsDpdk).paradigm,
            Paradigm::kMatchAction);
  EXPECT_EQ(profile(switches::SwitchType::kT4p4s).paradigm,
            Paradigm::kMatchAction);
  EXPECT_EQ(profile(switches::SwitchType::kVale).virtual_interface,
            VirtualInterface::kPtnet);
  for (auto t : {switches::SwitchType::kBess, switches::SwitchType::kSnabb,
                 switches::SwitchType::kFastClick}) {
    EXPECT_EQ(profile(t).architecture, Architecture::kModular);
  }
  EXPECT_EQ(profile(switches::SwitchType::kSnabb).reprogrammability,
            Reprogrammability::kHigh);
  EXPECT_EQ(profile(switches::SwitchType::kVale).reprogrammability,
            Reprogrammability::kLow);
}

TEST(Taxonomy, Table2HasExactlyThreeTunings) {
  int tuned = 0;
  for (const auto& p : profiles()) tuned += (p.tuning[0] != '\0');
  EXPECT_EQ(tuned, 3);  // FastClick, VALE, t4p4s
}

TEST(Taxonomy, RenderedTablesContainKeyContent) {
  const std::string t1 = scenario::render_table1();
  EXPECT_NE(t1.find("OvS-DPDK"), std::string::npos);
  EXPECT_NE(t1.find("Match/action"), std::string::npos);
  EXPECT_NE(t1.find("Pipeline"), std::string::npos);
  const std::string t2 = scenario::render_table2();
  EXPECT_NE(t2.find("4096"), std::string::npos);
  EXPECT_NE(t2.find("MAC learning"), std::string::npos);
  const std::string t5 = scenario::render_table5();
  EXPECT_NE(t5.find("VNF chaining"), std::string::npos);
  EXPECT_NE(t5.find("QEMU"), std::string::npos);
}

TEST(Taxonomy, EnumNames) {
  EXPECT_STREQ(to_string(Architecture::kModular), "Modular");
  EXPECT_STREQ(to_string(Paradigm::kStructured), "Structured");
  EXPECT_STREQ(to_string(ProcessingModel::kRtc), "RTC");
  EXPECT_STREQ(to_string(VirtualInterface::kVhostUser), "vhost-user");
  EXPECT_STREQ(to_string(Reprogrammability::kMedium), "Medium");
}

}  // namespace
}  // namespace nfvsb::taxonomy

namespace nfvsb::scenario {
namespace {

TEST(Report, FmtFormats) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(10.0, 0), "10");
}

TEST(Report, TableAlignsColumns) {
  TextTable t({"Name", "Value"});
  t.add_row({"short", "1.00"});
  t.add_row({"a-much-longer-name", "20.00"});
  const std::string out = t.to_string();
  // Header line, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  // All lines align: each data line ends with the right-aligned value.
  EXPECT_NE(out.find(" 1.00\n"), std::string::npos);
  EXPECT_NE(out.find("20.00\n"), std::string::npos);
}

TEST(Report, MissingCellsRenderEmpty) {
  TextTable t({"A", "B", "C"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.to_string());
}

}  // namespace
}  // namespace nfvsb::scenario
