#include "switches/vale/mac_table.h"

#include <bit>
#include <cassert>

namespace nfvsb::switches::vale {
namespace {

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

MacTable::MacTable(std::size_t buckets, core::SimDuration aging)
    : aging_(aging) {
  const std::size_t cap = std::bit_ceil(buckets);
  slots_.resize(cap);
  mask_ = cap - 1;
}

std::size_t MacTable::probe(std::uint64_t key) const {
  return static_cast<std::size_t>(mix(key)) & mask_;
}

void MacTable::learn(const pkt::MacAddress& mac, std::size_t port,
                     core::SimTime now) {
  if (mac.is_multicast()) return;  // never learn group addresses
  const std::uint64_t key = mac.as_u64();
  std::size_t i = probe(key);
  for (std::size_t n = 0; n <= mask_; ++n) {
    Slot& s = slots_[(i + n) & mask_];
    if (s.used && s.mac == key) {
      s.port = port;
      s.last_seen = now;
      return;
    }
    if (!s.used || now - s.last_seen > aging_) {
      if (!s.used) ++live_;
      s.used = true;
      s.mac = key;
      s.port = port;
      s.last_seen = now;
      return;
    }
  }
  // Table full of fresh entries: overwrite the home slot (VALE evicts).
  Slot& s = slots_[i];
  s.mac = key;
  s.port = port;
  s.last_seen = now;
}

std::optional<std::size_t> MacTable::lookup(const pkt::MacAddress& mac,
                                            core::SimTime now) const {
  if (mac.is_multicast()) return std::nullopt;
  const std::uint64_t key = mac.as_u64();
  std::size_t i = probe(key);
  for (std::size_t n = 0; n <= mask_; ++n) {
    const Slot& s = slots_[(i + n) & mask_];
    if (!s.used) return std::nullopt;
    if (s.mac == key) {
      if (now - s.last_seen > aging_) return std::nullopt;
      return s.port;
    }
  }
  return std::nullopt;
}

}  // namespace nfvsb::switches::vale
