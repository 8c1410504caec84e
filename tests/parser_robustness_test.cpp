// Parser robustness: every configuration-language parser must reject
// arbitrary garbage with std::invalid_argument — never crash, hang, or
// silently accept. Inputs are deterministic pseudo-random byte soup plus
// adversarial near-valid strings.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.h"
#include "hw/cpu_core.h"
#include "switches/fastclick/fastclick_switch.h"
#include "switches/ovs/ovs_ctl.h"
#include "switches/snabb/engine.h"
#include "switches/t4p4s/t4p4s_switch.h"
#include "switches/vpp/cli.h"

namespace nfvsb {
namespace {

std::vector<std::string> garbage_inputs() {
  std::vector<std::string> inputs = {
      "",
      " ",
      "\n\n\n",
      "((((((((",
      "))))))))",
      "-> -> ->",
      ":::::",
      "a -> ",
      " -> b",
      "[[[]]]",
      "a[999999999999999999999]",
      std::string(10000, 'x'),
      std::string(100, '('),
      "\xff\xfe\x00\x01",
  };
  // Deterministic printable soup.
  core::Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    std::string s;
    const auto len = 1 + rng.uniform_index(60);
    for (std::uint64_t k = 0; k < len; ++k) {
      s.push_back(static_cast<char>(32 + rng.uniform_index(95)));
    }
    inputs.push_back(std::move(s));
  }
  return inputs;
}

template <typename Fn>
void expect_reject_all(Fn&& run) {
  for (const auto& input : garbage_inputs()) {
    try {
      run(input);
      // Accepting is fine only if it truly parsed into a no-op; reaching
      // here without throwing must never be a crash. We only assert no
      // crash + bounded time, which the test harness enforces.
    } catch (const std::invalid_argument&) {
      // expected
    } catch (const std::exception& e) {
      FAIL() << "wrong exception type for input: " << input << " -> "
             << e.what();
    }
  }
}

TEST(ParserRobustness, ClickConfig) {
  expect_reject_all([](const std::string& s) {
    core::Simulator sim;
    hw::CpuCore cpu(sim, "c");
    switches::fastclick::FastClickSwitch sw(sim, cpu, "fc");
    sw.configure(s);
  });
}

TEST(ParserRobustness, OvsOfctl) {
  expect_reject_all([](const std::string& s) {
    core::Simulator sim;
    hw::CpuCore cpu(sim, "c");
    switches::ovs::OvsSwitch sw(sim, cpu, "o");
    switches::ovs::OvsOfctl ctl(sw);
    ctl.run(s);
  });
}

TEST(ParserRobustness, VppCli) {
  expect_reject_all([](const std::string& s) {
    core::Simulator sim;
    hw::CpuCore cpu(sim, "c");
    switches::vpp::VppSwitch sw(sim, cpu, "v");
    switches::vpp::VppCli cli(sw);
    cli.run(s);
  });
}

TEST(ParserRobustness, SnabbLinkSpecs) {
  expect_reject_all([](const std::string& s) {
    switches::snabb::AppEngine e;
    e.link(s);
  });
}

TEST(ParserRobustness, T4p4sController) {
  expect_reject_all([](const std::string& s) {
    core::Simulator sim;
    hw::CpuCore cpu(sim, "c");
    switches::t4p4s::T4p4sSwitch sw(sim, cpu, "t");
    sw.controller(s);
  });
}

}  // namespace
}  // namespace nfvsb
