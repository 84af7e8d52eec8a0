// Calendar queue ("timing wheel") for the engine's pending releases and
// timed suspensions.
//
// Both event sets were binary min-heaps: O(log n) per push/pop with
// pointer-hopping comparisons on the hot path, popped one entry at a
// time even when a whole batch shares the same tick. The wheel replaces
// them with a power-of-two ring of buckets over the near window
// [base, base + kSlots): scheduling is an O(1) list prepend, the next
// event time is a two-level bitmap scan, and a drain hands the caller
// *every* entry of the current tick in one call. Events beyond the
// window sit in a small overflow min-heap and migrate into the ring as
// the window advances past them — far-future events (periods larger
// than the window) cost two heap ops, exactly what they cost before.
//
// Determinism contract: entries within one bucket are kept in LIFO
// insertion order, which is deterministic but not the heap's pop order —
// callers that care (the engine does) must impose a total order on the
// drained batch (releases sort by task index, suspensions by sequence
// number) before processing. drainAt() may only be called with
// monotonically non-decreasing times, mirroring simulation time.
//
// Setup cost: the bucket-head array is left uninitialised. A head is
// read only where the occupancy bitmap marks its slot live, so a run
// touches the heads of the slots it uses and nothing else.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace mpcp {

template <typename Payload>
class TimingWheel {
 public:
  static constexpr std::uint32_t kSlotBits = 12;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;  // window ticks
  static constexpr std::uint32_t kMask = kSlots - 1;

  TimingWheel()
      : bucket_head_(std::make_unique_for_overwrite<std::int32_t[]>(kSlots)) {}

  /// Preallocates node and overflow storage so steady-state schedule()
  /// calls perform no heap allocation.
  void reserve(std::size_t n) {
    nodes_.reserve(n);
    overflow_.reserve(n);
  }

  /// Inserts an entry at absolute time `t` (must be >= base(), i.e. not
  /// in the past).
  void schedule(Time t, Payload p) {
    MPCP_DCHECK(t >= base_, "TimingWheel: scheduling into the past");
    ++size_;
    if (t < earliest_) earliest_ = t;
    if (t - base_ >= static_cast<Time>(kSlots)) {
      overflow_.push_back({t, std::move(p)});
      std::push_heap(overflow_.begin(), overflow_.end(), After{});
      return;
    }
    ringInsert(t, std::move(p));
  }

  /// Earliest pending time across ring and overflow; kTimeInfinity when
  /// empty. O(1): cached, kept exact by schedule/drainAt/cancel (the
  /// engine polls this every loop iteration).
  [[nodiscard]] Time earliest() const { return earliest_; }

  /// Advances the window to `t` (>= every previous drain time), migrates
  /// overflow entries that fell inside it, and appends every entry
  /// scheduled at exactly `t` to `out` (cleared first) in LIFO insertion
  /// order. Entries at later times are untouched.
  void drainAt(Time t, std::vector<Payload>& out) {
    MPCP_DCHECK(t >= base_, "TimingWheel: drainAt moved backwards");
    base_ = t;
    while (!overflow_.empty() &&
           overflow_.front().t - base_ < static_cast<Time>(kSlots)) {
      std::pop_heap(overflow_.begin(), overflow_.end(), After{});
      OverflowEntry e = std::move(overflow_.back());
      overflow_.pop_back();
      ringInsert(e.t, std::move(e.payload));
    }
    out.clear();
    const std::uint32_t s = static_cast<std::uint32_t>(t) & kMask;
    if (!live(s)) return;
    std::int32_t n = bucket_head_[s];
    while (n >= 0) {
      Node& node = nodes_[static_cast<std::size_t>(n)];
      MPCP_DCHECK(node.t == t, "TimingWheel: bucket/time mismatch");
      out.push_back(std::move(node.payload));
      const std::int32_t next = node.next;
      node.next = free_head_;
      free_head_ = n;
      n = next;
      --size_;
    }
    clearBit(s);
    recomputeEarliest();
  }

  /// Removes the first entry at time `t` whose payload satisfies `match`;
  /// returns false if none. (The engine invalidates lazily instead, but
  /// explicit cancellation keeps the structure honest and testable.)
  template <typename Pred>
  bool cancel(Time t, Pred match) {
    if (t >= base_ && t - base_ < static_cast<Time>(kSlots)) {
      const std::uint32_t s = static_cast<std::uint32_t>(t) & kMask;
      if (!live(s)) return false;
      std::int32_t* link = &bucket_head_[s];
      while (*link >= 0) {
        Node& node = nodes_[static_cast<std::size_t>(*link)];
        if (node.t == t && match(node.payload)) {
          const std::int32_t idx = *link;
          *link = node.next;
          node.next = free_head_;
          free_head_ = idx;
          --size_;
          if (bucket_head_[s] < 0) clearBit(s);
          recomputeEarliest();
          return true;
        }
        link = &node.next;
      }
      return false;
    }
    for (auto it = overflow_.begin(); it != overflow_.end(); ++it) {
      if (it->t == t && match(it->payload)) {
        overflow_.erase(it);
        std::make_heap(overflow_.begin(), overflow_.end(), After{});
        --size_;
        recomputeEarliest();
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] Time base() const { return base_; }

 private:
  struct Node {
    Time t = 0;
    Payload payload;
    std::int32_t next = -1;
  };
  struct OverflowEntry {
    Time t = 0;
    Payload payload;
  };
  struct After {  // min-heap on time; ties resolved by the caller's sort
    bool operator()(const OverflowEntry& a, const OverflowEntry& b) const {
      return a.t > b.t;
    }
  };

  void ringInsert(Time t, Payload p) {
    std::int32_t idx;
    if (free_head_ >= 0) {
      idx = free_head_;
      free_head_ = nodes_[static_cast<std::size_t>(idx)].next;
      nodes_[static_cast<std::size_t>(idx)] = {t, std::move(p), -1};
    } else {
      idx = static_cast<std::int32_t>(nodes_.size());
      nodes_.push_back({t, std::move(p), -1});
    }
    const std::uint32_t s = static_cast<std::uint32_t>(t) & kMask;
    nodes_[static_cast<std::size_t>(idx)].next =
        live(s) ? bucket_head_[s] : -1;
    bucket_head_[s] = idx;
    words_[s >> 6] |= 1ull << (s & 63);
    summary_ |= 1ull << (s >> 6);
  }

  /// Whether slot `s` holds entries; only then is bucket_head_[s] valid.
  [[nodiscard]] bool live(std::uint32_t s) const {
    return (words_[s >> 6] >> (s & 63)) & 1;
  }

  void clearBit(std::uint32_t s) {
    words_[s >> 6] &= ~(1ull << (s & 63));
    if (words_[s >> 6] == 0) summary_ &= ~(1ull << (s >> 6));
  }

  /// Refreshes the cached minimum after removals (one bitmap scan).
  void recomputeEarliest() {
    Time best = kTimeInfinity;
    if (size_ > overflow_.size()) best = ringEarliest();
    if (!overflow_.empty() && overflow_.front().t < best) {
      best = overflow_.front().t;
    }
    earliest_ = best;
  }

  /// First occupied slot in circular order from base_; the two-level
  /// bitmap makes this two word scans. Precondition: the ring is
  /// non-empty.
  [[nodiscard]] Time ringEarliest() const {
    const std::uint32_t sb = static_cast<std::uint32_t>(base_) & kMask;
    const std::uint32_t w0 = sb >> 6;
    std::uint32_t slot;
    const std::uint64_t head = words_[w0] & (~std::uint64_t{0} << (sb & 63));
    if (head != 0) {
      slot = (w0 << 6) +
             static_cast<std::uint32_t>(std::countr_zero(head));
    } else {
      // Rotate so word w0+1 lands at bit 0: the first set bit names the
      // next occupied word in circular order (w0 itself comes last and
      // then only its wrapped low bits can be set).
      const std::uint64_t rot =
          std::rotr(summary_, (static_cast<int>(w0) + 1) & 63);
      MPCP_DCHECK(rot != 0, "TimingWheel: bitmap empty but ring non-empty");
      const std::uint32_t wi =
          (w0 + 1 + static_cast<std::uint32_t>(std::countr_zero(rot))) & 63;
      slot = (wi << 6) +
             static_cast<std::uint32_t>(std::countr_zero(words_[wi]));
    }
    return base_ + static_cast<Time>((slot - sb) & kMask);
  }

  std::vector<Node> nodes_;
  std::int32_t free_head_ = -1;
  /// Per slot: first node index, -1 ends the list. Valid only where
  /// live(); the rest is uninitialised storage.
  std::unique_ptr<std::int32_t[]> bucket_head_;
  std::array<std::uint64_t, kSlots / 64> words_{};  // occupancy bit per slot
  std::uint64_t summary_ = 0;               // occupancy bit per word
  std::vector<OverflowEntry> overflow_;     // min-heap, t >= base_+kSlots
  Time base_ = 0;
  std::size_t size_ = 0;
  Time earliest_ = kTimeInfinity;  // cached min; exact at all times
};

}  // namespace mpcp
