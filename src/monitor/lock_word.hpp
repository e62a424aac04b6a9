// Compact per-object lock words (DESIGN.md §13).
//
// One 32-bit word in every heap object's header is the object's whole
// monitor association, so a heap of a million lockable objects carries
// monitor storage O(inflated monitors), not O(objects).  A word is in one
// of two states:
//
//   free      all zero — never synchronized on, or deflated back to nothing
//   inflated  [generation : 12][slot : 18][tag 10] — a fat monitor lives in
//             the MonitorTable at `slot`; `generation` must match the
//             slot's, otherwise the slot was deflated/recycled and the word
//             is stale (== logically free)
//
// The paper's protocol only acts on fat monitors — the waiter "deposits its
// priority in the header of the monitor object" (§4), and revocation,
// reservation and the entry queue all live there — so the engine inflates a
// word on the object's first synchronized (Engine::monitor_of) and there is
// no word-only locked state.
//
// Field budgets: 18 slot bits bound SIMULTANEOUSLY inflated monitors at
// 256K (live synchronized objects, not all objects), and 12 generation bits
// are made sound by retirement: a slot whose generation would wrap is never
// recycled (MonitorTable::destroy_slot), so a stale word can never falsely
// match a re-tenanted slot.
//
// This header is intentionally <cstdint>-only: heap::ObjectMeta embeds a
// LockWord, and rvk_heap must not drag the monitor layer's headers into
// every barrier-inlining translation unit.
#pragma once

#include <cstdint>

namespace rvk::monitor {

class LockWord {
 public:
  // Inflated-slot index width: 256K simultaneously inflated monitors.
  static constexpr std::uint32_t kIndexBits = 18;
  static constexpr std::uint32_t kMaxIndex = (1u << kIndexBits) - 1;
  // Per-slot generation width; a slot retires instead of wrapping.
  static constexpr std::uint32_t kGenBits = 12;
  static constexpr std::uint32_t kMaxGeneration = (1u << kGenBits) - 1;

  constexpr LockWord() = default;

  static constexpr LockWord inflated(std::uint32_t index,
                                     std::uint32_t generation) {
    return LockWord((generation << kGenShift) | (index << kTagBits) |
                    kTagInflated);
  }

  constexpr bool is_free() const { return bits_ == 0; }
  constexpr bool is_inflated() const {
    return (bits_ & kTagMask) == kTagInflated;
  }

  // ---- Field accessors (meaningful only when inflated) ----
  constexpr std::uint32_t index() const {
    return (bits_ >> kTagBits) & kMaxIndex;
  }
  constexpr std::uint32_t generation() const { return bits_ >> kGenShift; }

  constexpr std::uint32_t raw() const { return bits_; }

 private:
  static constexpr std::uint32_t kTagBits = 2;
  static constexpr std::uint32_t kTagMask = 0x3;
  static constexpr std::uint32_t kTagInflated = 0x2;
  static constexpr std::uint32_t kGenShift = kTagBits + kIndexBits;  // 20

  constexpr explicit LockWord(std::uint32_t bits) : bits_(bits) {}

  std::uint32_t bits_ = 0;
};
static_assert(sizeof(LockWord) == 4, "the lock word is one header word");

// Returns `word`'s MonitorTable slot to the global table when the word's
// holder (ObjectMeta) dies.  Quiescent slots are destroyed immediately; a
// slot whose monitor still has protocol state (queued waiters draining
// after the owner object was reclaimed) is *detached* — the back-link is
// severed and the monitor survives until a later scavenge() finds it
// quiescent.  No-op for stale or free words.  Defined in monitor_table.cpp.
void release_inflated_slot(LockWord& word) noexcept;

}  // namespace rvk::monitor
