// Compact per-object lock words (DESIGN.md §13).
//
// One 32-bit word in every heap object's header is the object's whole
// monitor association, so a heap of a million lockable objects carries
// monitor storage O(inflated monitors), not O(objects).  A word is in one
// of two states:
//
//   free      all zero — never synchronized on, or its slot was freed
//   inflated  [unused : 12][slot : 18][tag 10] — a fat monitor lives in
//             the MonitorTable at `slot`, and the slot's back-link names
//             this word (a word the slot does not name reads as free)
//
// The paper's protocol only acts on fat monitors — the waiter "deposits its
// priority in the header of the monitor object" (§4), and revocation,
// reservation and the entry queue all live there — so the engine inflates a
// word on the object's first synchronized (Engine::monitor_of) and there is
// no word-only locked state.
//
// Field budget: 18 slot bits bound SIMULTANEOUSLY inflated monitors at
// 256K (live synchronized objects, not all objects).  Every path that frees
// a slot clears the word naming it first (MonitorTable::release_slot,
// release_slots_owned_by), so a live word never names a freed slot and the
// word needs no version bits.
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

  constexpr LockWord() = default;

  static constexpr LockWord inflated(std::uint32_t index) {
    return LockWord((index << kTagBits) | kTagInflated);
  }

  constexpr bool is_free() const { return bits_ == 0; }
  constexpr bool is_inflated() const {
    return (bits_ & kTagMask) == kTagInflated;
  }

  // The slot index (meaningful only when inflated).
  constexpr std::uint32_t index() const {
    return (bits_ >> kTagBits) & kMaxIndex;
  }

  constexpr std::uint32_t raw() const { return bits_; }

 private:
  static constexpr std::uint32_t kTagBits = 2;
  static constexpr std::uint32_t kTagMask = 0x3;
  static constexpr std::uint32_t kTagInflated = 0x2;

  constexpr explicit LockWord(std::uint32_t bits) : bits_(bits) {}

  std::uint32_t bits_ = 0;
};
static_assert(sizeof(LockWord) == 4, "the lock word is one header word");

// Returns `word`'s MonitorTable slot to the global table when the word's
// holder (ObjectMeta) dies, and clears the word.  A quiescent slot is
// destroyed at once; a busy one is *detached* — the back-link is severed
// and the slot lives until its engine's teardown.  No-op for free words.
// Defined in monitor_table.cpp.
void release_inflated_slot(LockWord& word) noexcept;

}  // namespace rvk::monitor
