#include "obs/registry.h"

#include <algorithm>

#include "core/counter.h"

namespace nfvsb::obs {

std::string Registry::unique_path(std::string path) const {
  auto taken = [this](const std::string& p) {
    const auto hit_entry =
        std::any_of(entries_.begin(), entries_.end(),
                    [&](const Entry& e) { return e.path == p; });
    const auto hit_queue =
        std::any_of(queues_.begin(), queues_.end(),
                    [&](const Queue& q) { return q.path == p; });
    return hit_entry || hit_queue;
  };
  if (!taken(path)) return path;
  for (int n = 2;; ++n) {
    std::string candidate = path + "#" + std::to_string(n);
    if (!taken(candidate)) return candidate;
  }
}

void Registry::add_counter(const void* owner, std::string path,
                           const core::Counter* c) {
  entries_.push_back(Entry{owner, unique_path(std::move(path)), c, nullptr});
}

void Registry::add_value(const void* owner, std::string path,
                         const std::int64_t* v) {
  entries_.push_back(Entry{owner, unique_path(std::move(path)), nullptr, v});
}

void Registry::add_queue(const void* owner, std::string path,
                         std::size_t capacity, DepthFn depth) {
  queues_.push_back(Queue{owner, unique_path(std::move(path)), capacity, depth});
}

void Registry::add_sync(void* owner, SyncFn sync) {
  syncs_.push_back(Sync{owner, sync});
}

void Registry::remove(const void* owner) {
  std::erase_if(syncs_, [owner](const Sync& s) { return s.owner == owner; });
  std::erase_if(entries_, [owner](const Entry& e) { return e.owner == owner; });
  std::erase_if(queues_, [owner](const Queue& q) { return q.owner == owner; });
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::snapshot() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    out.emplace_back(e.path, e.counter != nullptr
                                 ? e.counter->value()
                                 : static_cast<std::uint64_t>(*e.raw));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace nfvsb::obs
