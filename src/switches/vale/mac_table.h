// Source-MAC learning table (VALE / mSwitch style).
//
// Open-addressed hash on the 48-bit address with aging. Learning happens on
// every received frame; lookup decides unicast forwarding vs flooding.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/time.h"
#include "pkt/headers.h"

namespace nfvsb::switches::vale {

class MacTable {
 public:
  explicit MacTable(std::size_t buckets = 1024,
                    core::SimDuration aging = core::from_sec(300));

  /// Learn (or refresh) src -> port.
  void learn(const pkt::MacAddress& mac, std::size_t port,
             core::SimTime now);

  /// Port for dst, if known and fresh.
  [[nodiscard]] std::optional<std::size_t> lookup(const pkt::MacAddress& mac,
                                                  core::SimTime now) const;

  [[nodiscard]] std::size_t entries() const { return live_; }

 private:
  struct Slot {
    std::uint64_t mac{0};
    std::size_t port{0};
    core::SimTime last_seen{-1};
    bool used{false};
  };

  [[nodiscard]] std::size_t probe(std::uint64_t key) const;

  std::vector<Slot> slots_;
  std::size_t mask_;
  std::size_t live_{0};
  core::SimDuration aging_;
};

}  // namespace nfvsb::switches::vale
