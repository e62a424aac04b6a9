// MonitorTable: the process-wide side table behind inflated lock words
// (DESIGN.md §13).
//
// A heap object's LockWord is free until the object's first synchronized.
// Engine::monitor_of then *inflates* it: the table hands out an
// index-stable, pooled slot holding a real MonitorBase built by the
// caller's factory (core::RevocableMonitor for the engine; the default
// BlockingMonitor serves table-level tests and micro-benchmarks), and the
// word becomes {slot, generation}.
//
// Deflation is the reverse edge and the reason steady-state monitor memory
// is O(contended monitors): a slot whose monitor is provably *quiescent* is
// destroyed and its word returns to free.  The quiescence predicate is
// deliberately shared with the engine (set_deflate_veto): the base check —
// no owner, no reservation, empty entry/wait queues, nobody in transit
// through acquire()/wait() — covers the monitor protocol, and the engine's
// veto adds "no live or lazy frame references this monitor", so revocation
// semantics (oldest-frame targeting, pin closure, §5.6 barging) are never
// consulted against a monitor that could disappear under them.
//
// Deflation happens at exactly two points, and NEVER inside the
// commit/abort/release forbidden regions: an explicit scavenge() (the
// engine's scavenge_monitors(), run from idle/maintenance context) and
// word-holder teardown (release_slot, when an ObjectMeta dies).  See
// DESIGN.md §13 for why.
//
// Generation tags make stale words safe without back-pointers from words to
// owners: every slot release bumps the slot's generation, so a word that
// outlives its monitor (object outliving an engine, a scavenged slot being
// recycled) simply stops matching and reads as free.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "monitor/lock_word.hpp"
#include "monitor/monitor.hpp"
#include "support/annotations.hpp"

namespace rvk::monitor {

struct MonitorTableStats {
  std::uint64_t inflations = 0;
  std::uint64_t deflations = 0;      // slots returned by quiescence checks
  std::uint64_t re_inflations = 0;   // inflations that reused a scavenged slot
  std::uint64_t scavenge_passes = 0;
  std::uint64_t live_high_water = 0;  // max simultaneously inflated slots
};

class MonitorTable {
 public:
  // Builds the fat monitor for an inflating word.  Must not retain the
  // name beyond construction.
  using Factory =
      std::function<std::unique_ptr<MonitorBase>(std::string name)>;

  MonitorTable() = default;
  ~MonitorTable();

  MonitorTable(const MonitorTable&) = delete;
  MonitorTable& operator=(const MonitorTable&) = delete;

  // The process-wide table every lock word indexes into.  (Per-process like
  // the engine's barrier hooks; a second table would need per-word table
  // identity, which the encoding deliberately does not spend bits on.)
  static MonitorTable& global();

  // Inflates `word`: allocates a slot (reusing a scavenged one when
  // available), builds the monitor via `factory` (default: a
  // BlockingMonitor), and rewrites `word` to {slot, generation}.  The
  // monitor starts unowned.  `owner_tag` identifies the slot's creator for
  // scavenge(tag), the deflation veto and release_slots_owned_by (the
  // engine passes itself).
  RVK_MAY_ALLOC MonitorBase& inflate(LockWord& word, std::string name,
                                     const Factory& factory = {},
                                     void* owner_tag = nullptr);

  // The monitor behind an inflated word, or nullptr if the word is stale
  // (slot deflated/recycled since) or not inflated at all.
  MonitorBase* monitor_at(const LockWord& word) const;

  // The base quiescence predicate: no owner, no reservation, empty entry
  // and wait queues, and nobody in transit through acquire()/wait() (a
  // woken-but-not-yet-rescheduled thread still holds a monitor reference —
  // deflating under it would be a use-after-free).
  static bool quiescent(const MonitorBase& m);

  // Engine veto: an extra predicate ANDed with quiescent() before a slot
  // deflates.  Returns true to allow deflation.  An engine installs "no live
  // or lazy frame references m" keyed by its owner tag (the same tag its
  // slots carry), so under sharding (DESIGN.md §16) each shard's engine
  // vetoes exactly its own slots and never has its private frame state
  // walked from another shard.  Cleared with an empty function.
  using DeflateVeto = std::function<bool(const MonitorBase&)>;
  void set_deflate_veto(void* tag, DeflateVeto allow);

  // Multi-shard switch (flipped by every engine that binds to a multi-shard
  // DomainSet, before its first table access — shard threads construct
  // their engines concurrently): guards the slot pool with a mutex.
  // Single-shard runs never take it — the lookup fast path stays one branch.
  // Relaxed is enough: a shard only touches the table after its own
  // engine's constructor flipped this in the same thread's program order.
  void set_concurrent(bool on) {
    concurrent_.store(on, std::memory_order_relaxed);
  }
  bool concurrent() const {
    return concurrent_.load(std::memory_order_relaxed);
  }

  // Sweeps live slots, deflating the quiescent ones (stale-detached slots
  // included).  Returns the number of slots deflated.  With the default
  // nullptr tag every slot is considered (the classic whole-table sweep);
  // a non-null tag restricts the sweep to that creator's slots — under
  // kOsThreads sharding a shard may only scavenge its own monitors, since
  // sweeping a peer's would run that peer's veto against engine state the
  // peer is concurrently mutating.
  std::size_t scavenge(const void* tag = nullptr);

  // Word-holder teardown: quiesce-or-detach (see release_inflated_slot in
  // lock_word.hpp, which forwards here on the global table).
  void release_slot(LockWord& word) noexcept;

  // Destroys every slot created with `owner_tag`, clearing surviving words
  // through the back-links.  Engine teardown: its RevocableMonitors
  // reference the dying engine and cannot outlive it; the scheduler is
  // drained by then, so unconditional destruction is sound.
  void release_slots_owned_by(void* tag);

  std::size_t live_slots() const { return live_; }
  std::size_t capacity() const { return slots_.size(); }
  // Side-table bytes attributable to slot bookkeeping (monitor objects
  // themselves are priced by the caller — the table cannot know concrete
  // monitor sizes).
  std::size_t slot_bytes() const;
  const MonitorTableStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  struct Slot {
    std::unique_ptr<MonitorBase> monitor;  // null when free
    LockWord* word = nullptr;   // back-link for sweeps; null when detached
    void* owner_tag = nullptr;  // creator identity (engine teardown)
    std::uint32_t generation = 1;      // bumped on release → stale words
    std::uint32_t next_free = kNoFree;
    bool ever_used = false;  // re_inflation accounting
  };

  Slot* slot_of(const LockWord& word);
  const Slot* slot_of(const LockWord& word) const;
  // Destroys the slot's monitor, bumps the generation, free-lists the
  // index.  Does NOT touch the word — callers own that.
  void destroy_slot(std::uint32_t index);

  // Conditional pool lock: a real unique_lock in concurrent (multi-shard)
  // mode, an unowned one otherwise.
  std::unique_lock<std::mutex> lock() const {
    return concurrent() ? std::unique_lock<std::mutex>(mu_)
                        : std::unique_lock<std::mutex>();
  }
  // Deflation permission for a monitor created under `owner_tag`: the base
  // quiescence predicate and the tag's veto.
  bool may_deflate_locked(const MonitorBase& m, const void* owner_tag) const;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
  std::size_t live_ = 0;
  std::unordered_map<const void*, DeflateVeto> tag_vetoes_;
  MonitorTableStats stats_;
  std::atomic<bool> concurrent_{false};
  mutable std::mutex mu_;
};

}  // namespace rvk::monitor
