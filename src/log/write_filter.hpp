// Lossy undo-log write filter (extension; paper §6: "eliminate overheads
// currently incurred to deal with logging").
//
// Within one synchronized frame only the FIRST store to a location needs its
// old value logged: a rollback of the frame restores the pre-frame value,
// and intermediate values are never observable (the reverse replay would
// overwrite them anyway).  WriteFilter remembers, per word, the frame that
// last logged it, in a fixed direct-mapped array of (word address, frame
// tag) pairs that every in-section store probes once and nothing clears:
//  * hit — same word, same tag: the frame's log segment already holds the
//    word's pre-frame value, so the append is skipped;
//  * miss — append, and the slot now vouches for (word, tag).
// A collision only evicts: the evicted word's next store appends a
// duplicate, and duplicates are harmless because reverse replay restores
// the oldest pre-image last.  The index is the word address (addr >> 3), so
// up to kSlots consecutive words never collide.
//
// Tags are core::Frame ids, which an engine never reuses.  Entries of a
// committed or aborted frame can therefore never hit again: a retried
// attempt runs under a fresh id and logs afresh, and an inner frame's first
// store to a word its outer frame logged misses (the inner rollback needs
// that entry to restore the outer frame's value).  Ids are unique per
// engine only — every Engine restarts at 1 — so an engine drops a thread's
// filter when it registers the thread (Engine::sync_of).
//
// Storage is taken at the thread's first logged store and handed back when
// the thread finishes (the scheduler's kFinish branch, next to the undo
// log's release_storage), so an idle or finished thread holds none.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "log/undo_log.hpp"
#include "support/annotations.hpp"

namespace rvk::log {

class WriteFilter {
 public:
  // 64 × 16 B = 1 KiB.  On the benchmark's logged single-shard workloads
  // 64 slots log exactly as many entries as 256, and the smaller filter is
  // cheaper to take per spawned thread (EXPERIMENTS.md, "Lossy write
  // filter").
  static constexpr std::size_t kSlots = 64;

  // True when `addr` has not been logged under `tag` — the caller must
  // append — and records the pair either way.
  RVK_MAY_ALLOC bool first_store(const Word* addr, std::uint64_t tag) {
    if (slots_ == nullptr) [[unlikely]] take_storage();
    Slot& s =
        slots_[(reinterpret_cast<std::uintptr_t>(addr) >> 3) & (kSlots - 1)];
    if (s.addr == addr && s.tag == tag) return false;
    s.addr = addr;
    s.tag = tag;
    return true;
  }

  // Frees the slots; the next first_store takes fresh, empty ones.
  void release_storage() { slots_.reset(); }

  bool holds_storage() const { return slots_ != nullptr; }

 private:
  struct Slot {
    const Word* addr = nullptr;
    std::uint64_t tag = 0;
  };

  // Cold path of first_store: allocates zeroed slots.
  RVK_MAY_ALLOC void take_storage();

  std::unique_ptr<Slot[]> slots_;
};

}  // namespace rvk::log
