// The registered statistic cell of the observation seam.
//
// A Counter is a monotone (occasionally credited-back) 64-bit event count, a
// drop-in replacement for the ad-hoc `std::uint64_t` members components
// used to keep: same increment syntax, implicit read conversion, zero
// indirection — the cell IS the storage, a MetricSink (core/metrics.h) only
// remembers where it lives. Registration is done once at wiring time; the
// hot path never touches the sink. The cell lives in core so every
// data-path layer can own one without depending on the obs machinery that
// reads it.
#pragma once

#include <cstdint>

namespace nfvsb::core {

class Counter {
 public:
  constexpr Counter() = default;
  constexpr explicit Counter(std::uint64_t v) : v_(v) {}

  Counter& operator++() {
    ++v_;
    return *this;
  }
  Counter& operator+=(std::uint64_t n) {
    v_ += n;
    return *this;
  }
  /// Credit-back for deferred-TX style corrections (see
  /// SwitchBase::note_deferred_tx); counters are otherwise monotone.
  Counter& operator-=(std::uint64_t n) {
    v_ -= n;
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return v_; }
  constexpr operator std::uint64_t() const { return v_; }  // NOLINT

 private:
  std::uint64_t v_{0};
};

}  // namespace nfvsb::core
