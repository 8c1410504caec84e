#include "switches/ovs/megaflow.h"

#include <algorithm>

namespace nfvsb::switches::ovs {

std::optional<MegaflowCache::LookupResult> MegaflowCache::lookup(
    const FlowKey& key) {
  for (std::size_t i = 0; i < subtables_.size(); ++i) {
    Subtable& st = subtables_[i];
    const auto it = st.flows.find(st.mask.apply(key));
    if (it != st.flows.end()) {
      ++hits_;
      ++st.hit_count;
      // Periodically bubble hot subtables forward (OvS sorts subtables by
      // hit frequency).
      if (i > 0 && st.hit_count > subtables_[i - 1].hit_count) {
        std::swap(subtables_[i], subtables_[i - 1]);
        return LookupResult{subtables_[i - 1]
                                .flows.at(subtables_[i - 1].mask.apply(key)),
                            i + 1};
      }
      return LookupResult{it->second, i + 1};
    }
  }
  ++misses_;
  return std::nullopt;
}

void MegaflowCache::insert(const FlowMask& mask, const FlowKey& key,
                           const Action& action) {
  const FlowKey masked = mask.apply(key);
  for (Subtable& st : subtables_) {
    if (st.mask == mask) {
      st.flows[masked] = action;
      return;
    }
  }
  Subtable st;
  st.mask = mask;
  st.flows[masked] = action;
  subtables_.push_back(std::move(st));
}

std::size_t MegaflowCache::entries() const {
  std::size_t n = 0;
  for (const auto& st : subtables_) n += st.flows.size();
  return n;
}

}  // namespace nfvsb::switches::ovs
