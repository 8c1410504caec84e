#include "switches/ovs/ovs_ctl.h"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace nfvsb::switches::ovs {
namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char ch : s) {
    if (ch == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  parts.push_back(cur);
  return parts;
}

std::uint64_t parse_uint(std::string_view v, int base = 10) {
  if (v.substr(0, 2) == "0x") {
    v.remove_prefix(2);
    base = 16;
  }
  std::uint64_t out = 0;
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out, base);
  if (ec != std::errc{} || p != v.data() + v.size()) {
    throw std::invalid_argument("ovs-ofctl: bad number: " + std::string(v));
  }
  return out;
}

}  // namespace

OpenFlowRule OvsOfctl::parse_flow(const std::string& spec) {
  OpenFlowRule rule;
  rule.priority = 32768;  // OpenFlow default
  rule.description = spec;
  bool have_actions = false;

  FlowKey raw;  // unmasked values as written
  for (const std::string& item : split(spec, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("ovs-ofctl: expected key=value: " + item);
    }
    const std::string k = item.substr(0, eq);
    const std::string v = item.substr(eq + 1);

    if (k == "priority") {
      rule.priority = static_cast<std::uint32_t>(parse_uint(v));
    } else if (k == "in_port") {
      rule.mask.in_port = true;
      raw.in_port = static_cast<std::uint32_t>(parse_uint(v)) - 1;  // 1-based
    } else if (k == "dl_src") {
      const auto m = pkt::MacAddress::parse(v);
      if (!m) throw std::invalid_argument("ovs-ofctl: bad MAC: " + v);
      rule.mask.eth_src = true;
      raw.eth_src = *m;
    } else if (k == "dl_dst") {
      const auto m = pkt::MacAddress::parse(v);
      if (!m) throw std::invalid_argument("ovs-ofctl: bad MAC: " + v);
      rule.mask.eth_dst = true;
      raw.eth_dst = *m;
    } else if (k == "dl_type") {
      rule.mask.eth_type = true;
      raw.eth_type = static_cast<std::uint16_t>(parse_uint(v));
    } else if (k == "nw_src") {
      const auto a = pkt::Ipv4Address::parse(v);
      if (!a) throw std::invalid_argument("ovs-ofctl: bad IP: " + v);
      rule.mask.ip_src = true;
      raw.ip_src = *a;
    } else if (k == "nw_dst") {
      const auto a = pkt::Ipv4Address::parse(v);
      if (!a) throw std::invalid_argument("ovs-ofctl: bad IP: " + v);
      rule.mask.ip_dst = true;
      raw.ip_dst = *a;
    } else if (k == "nw_proto") {
      rule.mask.ip_proto = true;
      raw.ip_proto = static_cast<std::uint8_t>(parse_uint(v));
    } else if (k == "tp_src") {
      rule.mask.tp_src = true;
      raw.tp_src = static_cast<std::uint16_t>(parse_uint(v));
    } else if (k == "tp_dst") {
      rule.mask.tp_dst = true;
      raw.tp_dst = static_cast<std::uint16_t>(parse_uint(v));
    } else if (k == "actions") {
      have_actions = true;
      if (v == "drop") {
        rule.action = Action::drop();
      } else if (v.rfind("output:", 0) == 0) {
        rule.action = Action::output(parse_uint(v.substr(7)) - 1);
      } else {
        throw std::invalid_argument("ovs-ofctl: bad action: " + v);
      }
    } else {
      throw std::invalid_argument("ovs-ofctl: unknown field: " + k);
    }
  }
  if (!have_actions) {
    throw std::invalid_argument("ovs-ofctl: missing actions=");
  }
  rule.match = rule.mask.apply(raw);  // store pre-masked
  return rule;
}

void OvsOfctl::run(const std::string& command) {
  std::istringstream in(command);
  std::string tok;
  in >> tok;
  if (tok == "ovs-ofctl") in >> tok;
  if (tok != "add-flow") {
    throw std::invalid_argument("ovs-ofctl: supported command: add-flow");
  }
  std::string bridge;
  in >> bridge;
  std::string spec;
  std::getline(in, spec);
  // Trim blanks and optional quotes.
  const auto first = spec.find_first_not_of(" \t\"");
  const auto last = spec.find_last_not_of(" \t\"");
  if (first == std::string::npos) {
    throw std::invalid_argument("ovs-ofctl: missing flow spec");
  }
  sw_.openflow().add_rule(parse_flow(spec.substr(first, last - first + 1)));
}

std::string OvsOfctl::dump_flows() const {
  std::ostringstream out;
  for (const auto& r : sw_.openflow().rules()) {
    out << "n_packets=" << sw_.rule_packets(r.id) << ", priority="
        << r.priority << " " << r.description << "\n";
  }
  return out.str();
}

}  // namespace nfvsb::switches::ovs
