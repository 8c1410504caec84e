// Allocation-free callback storage for the event engine.
//
// std::function heap-allocates any capture larger than its tiny internal
// buffer (two pointers on libstdc++), which put one malloc/free pair on the
// simulator's hottest path: every scheduled event. SmallFn keeps a 56-byte
// inline buffer — enough for every steady-state capture in the data path
// ([this], [this, raw], [this, q, raw], a NIC arrival's port, queue and
// 40-byte frame, even a wrapped std::function) — and falls back to the heap
// only for oversized captures. With the vtable pointer that is 64 bytes,
// what the buffer's max_align_t alignment rounded 48 up to anyway.
// Fallbacks are counted so tests (and the perf harness) can assert the hot
// path never allocates.
//
// Move-only, like the PacketHandles that often live inside captures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace nfvsb::core {

namespace detail {
/// Per-thread count of SmallFn constructions that spilled to the heap.
/// thread_local, not a plain global: the campaign runner constructs
/// SmallFns from many worker threads at once (a plain counter is a data
/// race TSan rightly flags), and the question tests ask is per-thread
/// anyway — "did MY steady-state loop allocate".
inline thread_local std::uint64_t small_fn_heap_fallbacks = 0;
}  // namespace detail

template <typename R, typename... Args>
class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT: implicit, mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &inline_vtable<Fn>;
    } else {
      // The documented escape hatch: oversized captures spill to the heap
      // (and are counted, so perf tests can assert the hot path never
      // takes this branch).
      // nfvsb-lint: allow(naked-new)
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &heap_vtable<Fn>;
      ++detail::small_fn_heap_fallbacks;
    }
  }

  SmallFn(SmallFn&& o) noexcept : vt_(o.vt_) {
    if (vt_ != nullptr) vt_->relocate(o.buf_, buf_);
    o.vt_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      if (vt_ != nullptr) vt_->destroy(buf_);
      vt_ = o.vt_;
      if (vt_ != nullptr) vt_->relocate(o.buf_, buf_);
      o.vt_ = nullptr;
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() {
    if (vt_ != nullptr) vt_->destroy(buf_);
  }

  [[nodiscard]] explicit operator bool() const { return vt_ != nullptr; }

  R operator()(Args... args) {
    return vt_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// True when this callable spilled its capture to the heap.
  [[nodiscard]] bool on_heap() const { return vt_ != nullptr && vt_->heap; }

  /// Heap spills on THIS thread since it started (or the last reset).
  [[nodiscard]] static std::uint64_t heap_fallback_count() {
    return detail::small_fn_heap_fallbacks;
  }
  static void reset_heap_fallback_count() {
    detail::small_fn_heap_fallbacks = 0;
  }

 private:
  struct VTable {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* src, void* dst);  // move-construct dst, destroy src
    void (*destroy)(void*);
    bool heap;
  };

  template <typename Fn>
  static constexpr VTable inline_vtable{
      [](void* p, Args&&... args) -> R {
        return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) {
        auto* s = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      false};

  template <typename Fn>
  static constexpr VTable heap_vtable{
      [](void* p, Args&&... args) -> R {
        return (**static_cast<Fn**>(p))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* p) { delete *static_cast<Fn**>(p); },
      true};

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_{nullptr};
};

/// The event engine's callback type.
using EventFn = SmallFn<void>;
static_assert(sizeof(EventFn) == EventFn::kInlineBytes + sizeof(void*),
              "the inline buffer and the vtable pointer fill EventFn");

}  // namespace nfvsb::core
