// Exact Match Cache — the first-level flow cache of the OvS-DPDK datapath
// (dpif-netdev). Fixed 8192 2-way buckets, keyed on the full FlowKey; the
// fastest hit path in OvS.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "switches/ovs/flow.h"

namespace nfvsb::switches::ovs {

class Emc {
 public:
  static constexpr std::size_t kEntries = 8192;
  static constexpr std::size_t kWays = 2;

  Emc();

  [[nodiscard]] std::optional<Action> lookup(const FlowKey& key) const;
  void insert(const FlowKey& key, const Action& action);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    FlowKey key;
    Action action;
    bool used{false};
  };

  std::vector<std::array<Entry, kWays>> buckets_;
  mutable std::uint64_t hits_{0};
  mutable std::uint64_t misses_{0};
};

}  // namespace nfvsb::switches::ovs
