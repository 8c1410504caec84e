// Megaflow cache — the second-level OvS datapath classifier: tuple-space
// search over the set of in-use masks, one exact-match hash table per mask.
// Lookup cost grows with the number of distinct masks (subtables), which is
// why the switch cost model charges per subtable probed.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "switches/ovs/flow.h"

namespace nfvsb::switches::ovs {

class MegaflowCache {
 public:
  struct LookupResult {
    Action action;
    /// Subtables probed before the hit (>=1). Cost-model input.
    std::size_t subtables_probed;
  };

  [[nodiscard]] std::optional<LookupResult> lookup(const FlowKey& key);

  /// Install `masked key -> action` under `mask`, creating the subtable on
  /// first use of the mask.
  void insert(const FlowMask& mask, const FlowKey& key, const Action& action);

  [[nodiscard]] std::size_t subtables() const { return subtables_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  // Ordered map (FlowKey has operator<=>): data-path layers ban the
  // unordered containers so no future iteration can become hash-order
  // dependent. Each subtable is small (exact-match entries under one mask)
  // and lookups are find()-only, so the tree lookup is not a modelled cost.
  struct Subtable {
    FlowMask mask;
    std::map<FlowKey, Action> flows;
    std::uint64_t hit_count{0};  // for most-hit-first ordering
  };

  std::vector<Subtable> subtables_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

}  // namespace nfvsb::switches::ovs
