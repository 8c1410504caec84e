// Growable circular FIFO: the storage behind ring::SpscRing and
// hw::CpuCore's job queue.
//
// A std::deque allocates a fresh block every few dozen elements as its head
// and tail walk forward, so even a queue whose depth stays flat keeps
// hitting the heap. Fifo keeps one power-of-two buffer, indexed by a mask;
// it doubles only when a push finds it full, i.e. on a new high-water mark.
// Once a queue has seen its peak depth it never allocates again. Capacity
// limits are the owner's business (SpscRing drops at its own capacity
// before pushing), so a bounded owner's buffer stops at the first power of
// two that holds its bound.
//
// Vacant slots hold default-constructed or moved-from T, so T must be
// default constructible, move assignable, and own nothing once moved from
// (PacketHandle and CpuCore's jobs qualify).
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace nfvsb::core {

template <typename T>
class Fifo {
 public:
  /// First allocation, in elements (a power of two).
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Allocated slots: 0 until the first push, then a power of two.
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  void push_back(T&& v) {
    if (size_ == cap_) grow(cap_ == 0 ? kMinCapacity : cap_ * 2);
    buf_[(head_ + size_) & (cap_ - 1)] = std::move(v);
    ++size_;
  }
  void push_back(const T& v) { push_back(T(v)); }

  /// Allocate room for `n` elements now, rounded up to a power of two,
  /// instead of growing to it on later pushes.
  void reserve(std::size_t n) {
    if (cap_ >= n) return;
    std::size_t cap = cap_ == 0 ? kMinCapacity : cap_;
    while (cap < n) cap *= 2;
    grow(cap);
  }

  /// Remove and return the oldest element. The FIFO must not be empty.
  [[nodiscard]] T pop_front() {
    assert(size_ > 0);
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return v;
  }

  /// The i-th oldest element (0 = front).
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }

 private:
  void grow(std::size_t next) {
    auto bigger = std::make_unique<T[]>(next);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & (cap_ - 1)]);
    }
    buf_ = std::move(bigger);
    cap_ = next;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_{0};
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace nfvsb::core
