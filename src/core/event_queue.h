// Pending-event set for the discrete-event simulator: a hierarchical timing
// wheel with an overflow heap.
//
// The previous implementation was a binary heap of std::function callbacks
// with an unordered_set of cancellation tombstones: every schedule paid a
// heap allocation (closure capture) and an O(log n) sift, every pop a hash
// probe. This version keeps the exact observable semantics — events fire in
// (time, schedule-sequence) order, so two events at the same instant fire in
// scheduling order and repeated runs are bit-identical — on a faster layout:
//
//  * callbacks are core::EventFn (48 B inline, no allocation for the data
//    path's captures);
//  * event records live in a slab with a free list; EventId is a
//    slot+generation handle, so cancel() is O(1) and cancelling an
//    already-fired or already-cancelled id is a detected no-op (the old
//    tombstone set leaked an entry and corrupted the live count);
//  * pending events are bucketed by time on a 5-level/1024-slot timing
//    wheel (2^10 ps per tick, so level 0 spans ~1 us and the wheel ~13 days
//    of simulated time); events beyond the horizon wait in an overflow
//    min-heap and cascade in when the wheel window reaches them;
//  * the "current" bucket is a small (time, seq)-ordered heap, which is the
//    only per-pop ordering work — buckets hold a handful of events, not the
//    whole pending set.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/event_fn.h"
#include "core/time.h"

namespace nfvsb::core {

class EventQueue {
 public:
  using Callback = EventFn;

  /// Cancellation handle: slot index in the low 32 bits, slot generation in
  /// the high 32. Generations start at 1, so 0 is never a valid handle.
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  EventQueue();

  /// Schedule `cb` at absolute time `at`. Inline, like the keyed overload
  /// defined below — this is the hottest call in the simulator.
  [[nodiscard]] EventId schedule(SimTime at, Callback cb) {
    return schedule(at, reserve_seq(), std::move(cb));
  }

  /// Schedule with an explicit order key: `seq` from reserve_seq(), so the
  /// event fires exactly where one scheduled at that reservation would.
  /// Takes the callback by reference so the plain overload moves it once.
  [[nodiscard]] EventId schedule(SimTime at, std::uint64_t seq,
                                 Callback&& cb);

  /// Keys are taken kKeyStride apart. The values between two consecutive
  /// keys belong to no schedule() call: core::Simulator::late_order places
  /// a key there after the fact, at the end of a past instant.
  static constexpr std::uint64_t kKeyStride = 16;

  /// Take the order key the next schedule() would, without scheduling.
  [[nodiscard]] std::uint64_t reserve_seq() {
    const std::uint64_t seq = next_seq_;
    next_seq_ += kKeyStride;
    return seq;
  }
  /// The last key taken (0 before the first).
  [[nodiscard]] std::uint64_t last_seq() const {
    return next_seq_ - kKeyStride;
  }
  /// The key the next reserve_seq() takes.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Cancel a previously scheduled event. O(1). Safe (and a no-op) on
  /// already-fired, already-cancelled, and never-issued ids.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Earliest pending event time. Pre: !empty(). Logically const but may
  /// advance the wheel cursor internally, hence non-const (the old design
  /// hid the same mutation behind a const_cast).
  [[nodiscard]] SimTime next_time() { return next_key().time; }

  /// Firing order key of the earliest pending event. Pre: !empty().
  struct Key {
    SimTime time;
    std::uint64_t seq;
  };
  [[nodiscard]] Key next_key() {
    assert(!empty());
    refill();
    return {cur_.front().time, cur_.front().seq};
  }

  struct Fired {
    SimTime time;
    std::uint64_t seq;
    Callback cb;
  };
  /// Pop and return the earliest live event. Pre: !empty(). Inline below.
  Fired pop();

  void clear();

 private:
  // --- geometry -------------------------------------------------------------
  /// 2^10 ps = 1.024 ns per tick: finer than any event gap that matters (a
  /// 64 B frame serializes in 67 ns), coarse enough that level 0 covers the
  /// dense near future.
  static constexpr unsigned kTickShift = 10;
  /// 10 bits per level: level 0 alone spans ~1 us of sim time, so the hot
  /// events (serialization slots, DMA completions, pacing gaps) take a
  /// single bucket insert and never cascade.
  static constexpr unsigned kSlotBits = 10;
  static constexpr std::size_t kSlots = 1u << kSlotBits;   // 1024
  static constexpr unsigned kLevels = 5;                   // 2^50 tick horizon

  struct Rec {
    EventFn cb;
    std::uint64_t seq{0};
    SimTime time{0};
    std::uint32_t gen{1};
    /// Free-list link when the slot is free, bucket-chain link while the
    /// record waits on the wheel. Never both: a record leaves its bucket
    /// chain before the slot is reclaimed.
    std::uint32_t next{kNoFree};
    bool live{false};
  };
  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  /// Reference to a record, with the ordering key cached so bucket and heap
  /// operations never chase the slab pointer.
  struct Ref {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t rec;
    std::uint32_t gen;
  };
  /// Max-heap comparator that yields a (time, seq) min-heap.
  struct RefAfter {
    bool operator()(const Ref& a, const Ref& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] static std::uint64_t tick_of(SimTime t) {
    return t <= 0 ? 0 : static_cast<std::uint64_t>(t) >> kTickShift;
  }

  /// Level of `tick` relative to cursor `pos`: index of the highest
  /// kSlotBits-wide digit in which they differ. 0 when equal. >= kLevels
  /// means beyond the horizon.
  static unsigned level_of(std::uint64_t tick, std::uint64_t pos) {
    const std::uint64_t x = tick ^ pos;
    if (x == 0) return 0;
    return static_cast<unsigned>(std::bit_width(x) - 1) / kSlotBits;
  }

  [[nodiscard]] bool ref_live(const Ref& r) const {
    const Rec& rec = slab_[r.rec];
    return rec.live && rec.gen == r.gen;
  }

  std::uint32_t alloc_rec();
  /// Mark a record logically dead: invalidates outstanding handles (gen
  /// bump) and releases the callback. Does NOT return the slot to the free
  /// list — the container currently holding the record (bucket chain, cur_,
  /// or overflow) reclaims it when it next processes it.
  void kill_rec(std::uint32_t slot);
  /// Return a dead record's slot to the free list.
  void push_free(std::uint32_t slot);
  void free_rec(std::uint32_t slot) {
    kill_rec(slot);
    push_free(slot);
  }

  void cur_push(Ref r);
  void cur_pop();

  /// Thread record `rec_idx` (tick >= pos_) onto the wheel bucket chain for
  /// its level/slot, or push it on the overflow heap.
  void wheel_insert(std::uint32_t rec_idx, std::uint64_t tick);
  /// Move the bucket at (level, slot) down: level 0 buckets feed cur_,
  /// higher levels redistribute to lower levels. Dead records are reclaimed.
  void open_level0(std::size_t slot, std::uint64_t tick);
  void cascade(unsigned level, std::size_t slot);

  /// Reclaim cancelled refs sitting on top of cur_ (cur_ owns their
  /// records — nothing else frees them).
  void drop_stale_cur() {
    while (!cur_.empty() && !ref_live(cur_.front())) {
      const std::uint32_t rec = cur_.front().rec;
      assert(!slab_[rec].live);
      cur_pop();
      push_free(rec);
    }
  }

  /// Ensure cur_ is non-empty with a live ref on top. Pre: !empty().
  void refill() {
    drop_stale_cur();
    if (cur_.empty()) refill_slow();
  }
  void refill_slow();

  void set_bit(unsigned level, std::size_t slot) {
    occ_[level][slot >> 6] |= 1ull << (slot & 63);
  }
  void clear_bit(unsigned level, std::size_t slot) {
    occ_[level][slot >> 6] &= ~(1ull << (slot & 63));
  }
  /// Smallest occupied slot >= from at `level`, or -1.
  int next_occupied(unsigned level, std::size_t from) const;

  std::vector<Rec> slab_;
  std::uint32_t free_head_{kNoFree};
  std::uint64_t next_seq_{kKeyStride};
  std::size_t live_count_{0};

  /// Scan cursor: every pending event with tick < pos_ is in cur_; the wheel
  /// and overflow hold only ticks >= pos_.
  std::uint64_t pos_{0};
  std::vector<Ref> cur_;       // (time, seq) min-heap
  std::vector<Ref> overflow_;  // (time, seq) min-heap, tick beyond horizon
  /// Bucket chains are intrusive: each bucket is the head slot of a singly
  /// linked list threaded through Rec::next (kNoFree = empty). Chain order
  /// is irrelevant — cur_'s (time, seq) heap decides firing order — so
  /// insertion is a two-word prepend with no per-bucket storage.
  std::array<std::array<std::uint32_t, kSlots>, kLevels> bucket_head_;
  std::array<std::array<std::uint64_t, kSlots / 64>, kLevels> occ_{};
};

// --- inline hot paths -------------------------------------------------------
// schedule() and pop() are the two hottest calls in the whole simulator;
// keeping them (and their helpers) header-inline lets every translation unit
// fold the slab/bucket accesses into straight-line code.

inline std::uint32_t EventQueue::alloc_rec() {
  if (free_head_ != kNoFree) {
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next;
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

inline void EventQueue::kill_rec(std::uint32_t slot) {
  Rec& r = slab_[slot];
  r.live = false;
  r.cb = EventFn{};
  if (++r.gen == 0) r.gen = 1;  // keep 0 as the never-valid generation
}

inline void EventQueue::push_free(std::uint32_t slot) {
  slab_[slot].next = free_head_;
  free_head_ = slot;
}

inline void EventQueue::cur_push(Ref r) {
  cur_.push_back(r);
  std::push_heap(cur_.begin(), cur_.end(), RefAfter{});
}

inline void EventQueue::cur_pop() {
  std::pop_heap(cur_.begin(), cur_.end(), RefAfter{});
  cur_.pop_back();
}

inline void EventQueue::wheel_insert(std::uint32_t rec_idx,
                                     std::uint64_t tick) {
  const unsigned level = level_of(tick, pos_);
  if (level >= kLevels) {
    const Rec& r = slab_[rec_idx];
    overflow_.push_back(Ref{r.time, r.seq, rec_idx, r.gen});
    std::push_heap(overflow_.begin(), overflow_.end(), RefAfter{});
    return;
  }
  const std::size_t slot = (tick >> (level * kSlotBits)) & (kSlots - 1);
  std::uint32_t& head = bucket_head_[level][slot];
  if (head == kNoFree) set_bit(level, slot);
  slab_[rec_idx].next = head;
  head = rec_idx;
}

inline EventQueue::EventId EventQueue::schedule(SimTime at,
                                                std::uint64_t seq,
                                                Callback&& cb) {
  const std::uint32_t slot = alloc_rec();
  Rec& rec = slab_[slot];
  rec.cb = std::move(cb);
  rec.seq = seq;
  rec.time = at;
  rec.live = true;
  ++live_count_;
  const std::uint64_t tick = tick_of(at);
  if (tick < pos_) {
    // At/behind the cursor (e.g. zero-delay re-schedule): straight to cur_.
    cur_push(Ref{at, rec.seq, slot, rec.gen});
  } else {
    wheel_insert(slot, tick);
  }
  return (static_cast<EventId>(rec.gen) << 32) | slot;
}

inline EventQueue::Fired EventQueue::pop() {
  assert(!empty());
  refill();
  const Ref top = cur_.front();
  cur_pop();
  Rec& rec = slab_[top.rec];
  Fired fired{rec.time, rec.seq, std::move(rec.cb)};
  free_rec(top.rec);
  --live_count_;
  return fired;
}

}  // namespace nfvsb::core
