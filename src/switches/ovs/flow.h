// OvS flow keys, masks and actions.
//
// A FlowKey is the parsed header tuple OvS extracts per packet (miniflow);
// a FlowMask selects which fields a rule constrains (megaflow wildcarding);
// an Action is what the data path does on a match.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "pkt/headers.h"

namespace nfvsb::switches::ovs {

struct FlowKey {
  std::uint32_t in_port{0};
  pkt::MacAddress eth_src;
  pkt::MacAddress eth_dst;
  std::uint16_t eth_type{0};
  pkt::Ipv4Address ip_src;
  pkt::Ipv4Address ip_dst;
  std::uint8_t ip_proto{0};
  std::uint16_t tp_src{0};
  std::uint16_t tp_dst{0};

  auto operator<=>(const FlowKey&) const = default;
  [[nodiscard]] std::uint64_t hash() const;

  /// Extract from a frame (runt/non-IPv4 frames yield partial keys).
  static FlowKey from_frame(std::uint32_t in_port,
                            std::span<const std::uint8_t> frame);
};

/// Which FlowKey fields a rule matches on. Field-granular (like OvS's
/// per-field miniflow maps, without sub-field bit masks).
struct FlowMask {
  bool in_port{false};
  bool eth_src{false};
  bool eth_dst{false};
  bool eth_type{false};
  bool ip_src{false};
  bool ip_dst{false};
  bool ip_proto{false};
  bool tp_src{false};
  bool tp_dst{false};

  auto operator<=>(const FlowMask&) const = default;

  /// Zero out all wildcarded fields of `k`.
  [[nodiscard]] FlowKey apply(const FlowKey& k) const;

  /// Field-wise union (fields matched by either mask).
  [[nodiscard]] FlowMask union_with(const FlowMask& o) const;

  [[nodiscard]] static FlowMask wildcard_all() { return FlowMask{}; }
};

enum class ActionType : std::uint8_t { kOutput, kDrop };

struct Action {
  ActionType type{ActionType::kDrop};
  std::size_t out_port{0};
  /// Originating OpenFlow rule (0 = none) — how datapath-cache hits are
  /// attributed back to rules for `dump-flows` n_packets accounting.
  std::uint32_t rule_id{0};

  static Action output(std::size_t port) {
    return Action{ActionType::kOutput, port, 0};
  }
  static Action drop() { return Action{ActionType::kDrop, 0, 0}; }

  auto operator<=>(const Action&) const = default;
};

}  // namespace nfvsb::switches::ovs
