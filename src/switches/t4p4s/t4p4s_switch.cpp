#include "switches/t4p4s/t4p4s_switch.h"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/simulator.h"
#include "switches/switch_base.h"

namespace nfvsb::switches::t4p4s {

// Calibration (EXPERIMENTS.md): p2p 64B ~5.6 Gbps = 8.33 Mpps -> ~120
// ns/pkt. The explicit stage costs (parse 26 + lookup 30 + deparse 24 = 80)
// plus HAL port costs make the budget. Latency: big internal batches with
// an assembly timeout (~60 us) give the flat ~30 us RTT at 0.10/0.50 R+
// and, with the heavy service variance, the 174 us blow-up at 0.99 R+.
CostModel T4p4sSwitch::default_cost_model() {
  CostModel c;
  c.batch_fixed_ns = 600;  // HAL dispatch per round
  c.pipeline_ns = 16.0;    // per-packet outside the explicit stages
  c.physical = PortCosts{14, 12, 0.0, 0.0};
  c.vhost = PortCosts{60, 46, 0.07, 0.07};  // vhost support is retrofitted
  c.vhost_extra_desc_ns = 100;
  c.ptnet = PortCosts{20, 20, 0.0, 0.0};
  c.internal = PortCosts{5, 5, 0.0, 0.0};
  c.burst = 128;
  c.batch_timeout = core::from_us(45);
  c.jitter_cv = 0.8;
  c.stall_prob = 1.2e-2;
  c.stall_mean_us = 70;
  c.vhost_stall_prob = 3e-3;
  c.vhost_stall_mean_us = 900;
  return c;
}

T4p4sSwitch::T4p4sSwitch(core::Simulator& sim, hw::CpuCore& core,
                         std::string name, CostModel cost)
    : SwitchBase(sim, core, std::move(name), cost) {}

void T4p4sSwitch::controller(const std::string& command) {
  std::istringstream in(command);
  std::vector<std::string> toks;
  std::string t;
  while (in >> t) toks.push_back(t);
  if (toks.empty()) throw std::invalid_argument("t4p4s: empty command");

  if (toks[0] == "table_clear") {
    if (toks.size() != 2 || toks[1] != "l2fwd") {
      throw std::invalid_argument("t4p4s: table_clear l2fwd");
    }
    l2_table_ = ExactMacTable{};
    return;
  }
  if (toks[0] != "table_add" || toks.size() < 4 || toks[1] != "l2fwd") {
    throw std::invalid_argument(
        "t4p4s: expected table_add l2fwd <action> <mac> [=> <port>]");
  }
  const auto mac = pkt::MacAddress::parse(toks[3]);
  if (!mac) throw std::invalid_argument("t4p4s: bad MAC: " + toks[3]);
  if (toks[2] == "_drop") {
    l2_table_.add(*mac, P4Action::drop());
    return;
  }
  if (toks[2] == "forward") {
    if (toks.size() != 6 || toks[4] != "=>") {
      throw std::invalid_argument("t4p4s: forward <mac> => <port>");
    }
    const std::string& arg = toks[5];
    std::size_t port = 0;
    const auto [end, ec] =
        std::from_chars(arg.data(), arg.data() + arg.size(), port);
    if (ec != std::errc{} || end != arg.data() + arg.size()) {
      throw std::invalid_argument("t4p4s: bad port: " + arg);
    }
    l2_table_.add(*mac, P4Action::forward(port));
    return;
  }
  throw std::invalid_argument("t4p4s: unknown action: " + toks[2]);
}

void T4p4sSwitch::wire(std::span<const PortPair> pairs) {
  for (const PortPair& p : pairs) {
    l2_table_.add(egress_mac(p.out), P4Action::forward(p.out));
  }
}

double T4p4sSwitch::process_batch(ring::Port& in,
                                  std::vector<pkt::PacketHandle>& batch,
                                  std::vector<Tx>& out) {
  (void)in;
  double extra_ns = 0.0;
  for (auto& p : batch) {
    Phv phv = parse(p->bytes());
    extra_ns += stage_costs_.parse_ns;
    if (!phv.eth_valid) continue;

    extra_ns += stage_costs_.table_lookup_ns;
    const auto action = l2_table_.lookup(phv.eth_dst);
    if (!action) {
      ++table_misses_;  // P4 default action: drop
      continue;
    }
    if (action->kind == P4Action::Kind::kDrop) continue;  // matched _drop
    if (action->new_dst_mac) phv.eth_dst = *action->new_dst_mac;

    deparse(phv, p->bytes());
    extra_ns += stage_costs_.deparse_ns;

    if (action->port < num_ports()) {
      out.push_back(Tx{&port(action->port), std::move(p)});
    }
  }
  return extra_ns;
}

}  // namespace nfvsb::switches::t4p4s
