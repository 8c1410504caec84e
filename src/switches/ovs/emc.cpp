#include "switches/ovs/emc.h"

namespace nfvsb::switches::ovs {

Emc::Emc() : buckets_(kEntries / kWays) {}

std::optional<Action> Emc::lookup(const FlowKey& key) const {
  const std::size_t b = key.hash() % buckets_.size();
  for (const Entry& e : buckets_[b]) {
    if (e.used && e.key == key) {
      ++hits_;
      return e.action;
    }
  }
  ++misses_;
  return std::nullopt;
}

void Emc::insert(const FlowKey& key, const Action& action) {
  const std::size_t b = key.hash() % buckets_.size();
  auto& bucket = buckets_[b];
  // Prefer an empty way, else evict way 0 (OvS randomizes; determinism
  // matters more here).
  for (Entry& e : bucket) {
    if (!e.used || e.key == key) {
      e = Entry{key, action, true};
      return;
    }
  }
  bucket[0] = Entry{key, action, true};
}

}  // namespace nfvsb::switches::ovs
