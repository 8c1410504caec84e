// t4p4s match-action table: exact match on destination MAC, the table of
// the paper's l2fwd P4 program.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "pkt/headers.h"

namespace nfvsb::switches::t4p4s {

struct P4Action {
  enum class Kind : std::uint8_t { kForward, kDrop } kind{Kind::kDrop};
  std::size_t port{0};
  /// l2fwd in the loopback scenario rewrites the destination MAC so the
  /// next hop's table matches (appendix A.4).
  std::optional<pkt::MacAddress> new_dst_mac;

  static P4Action forward(std::size_t port) {
    return P4Action{Kind::kForward, port, std::nullopt};
  }
  static P4Action drop() { return P4Action{}; }
};

/// Exact match on destination MAC (the paper's l2fwd table:
/// "destination MAC address / output port" as Match/Action fields).
class ExactMacTable {
 public:
  void add(const pkt::MacAddress& mac, P4Action action) {
    entries_[mac.as_u64()] = action;
  }
  [[nodiscard]] std::optional<P4Action> lookup(
      const pkt::MacAddress& mac) const {
    const auto it = entries_.find(mac.as_u64());
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::uint64_t, P4Action> entries_;
};

}  // namespace nfvsb::switches::t4p4s
