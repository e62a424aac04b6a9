// A shard's event ring buffer: fixed capacity, drop-oldest on overflow.
//
// Each shard's recorder owns one ring, shared by all of the shard's threads
// (events carry their tid).  A shard is a green-thread system — one OS
// thread, context switches only at yield points — so "lock-free" here is by
// construction: the ring has exactly one writer, and code between yield
// points is atomic.  What the ring must guarantee instead is the
// forbidden-region contract: push() into a pre-reserved slot never
// allocates, yields, or blocks, so recording is legal inside commit/abort
// and monitor release paths (CLAUDE.md).
//
// Overflow policy: drop-oldest, across the shard's threads — a busy thread
// can evict a quiet thread's events.  The newest events are the ones a
// post-mortem wants (what led up to the interesting moment), so an
// overflowing ring overwrites its oldest slot and counts the loss —
// dropped() makes truncation visible instead of silent.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "obs/event.hpp"

namespace rvk::obs {

class EventRing {
 public:
  // Capacity is rounded up to a power of two (slot index is a mask, not a
  // division).  All slots are allocated up front — the recording paths only
  // ever store into existing slots.
  explicit EventRing(std::size_t capacity = kDefaultCapacity)
      : slots_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)),
        mask_(slots_.size() - 1) {}

  static constexpr std::size_t kDefaultCapacity = 16384;

  // Records one event; overwrites the oldest record when full.  No
  // allocation, no branches beyond the mask arithmetic.
  void push(const Event& e) {
    slots_[static_cast<std::size_t>(head_) & mask_] = e;
    ++head_;
  }

  std::size_t capacity() const { return slots_.size(); }

  // Events currently retained (≤ capacity).
  std::size_t size() const {
    return head_ < slots_.size() ? static_cast<std::size_t>(head_)
                                 : slots_.size();
  }
  bool empty() const { return head_ == 0; }

  // Events lost to the drop-oldest policy since the last clear().
  std::uint64_t dropped() const {
    return head_ > slots_.size() ? head_ - slots_.size() : 0;
  }

  // Total events ever pushed since the last clear().
  std::uint64_t pushed() const { return head_; }

  // Visits retained events oldest-first.
  template <typename F>
  void for_each(F&& f) const {
    const std::uint64_t first = head_ > slots_.size() ? head_ - slots_.size()
                                                      : 0;
    for (std::uint64_t i = first; i < head_; ++i) {
      f(slots_[static_cast<std::size_t>(i) & mask_]);
    }
  }

  void clear() { head_ = 0; }

 private:
  std::vector<Event> slots_;
  std::size_t mask_;
  std::uint64_t head_ = 0;  // next logical slot; min(head_, cap) are live
};

}  // namespace rvk::obs
