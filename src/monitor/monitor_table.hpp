// MonitorTable: the process-wide side table behind inflated lock words
// (DESIGN.md §13).
//
// A heap object's LockWord is free until the object's first synchronized.
// Engine::monitor_of then *inflates* it: the table hands out an
// index-stable, pooled slot holding a real MonitorBase built by the
// caller's factory (core::RevocableMonitor for the engine; the default
// BlockingMonitor serves table-level tests and micro-benchmarks), and the
// word becomes {slot}.
//
// A slot is freed at exactly two points, and NEVER inside the
// commit/abort/release forbidden regions:
//
//  * release_slot, when the word's holder (an ObjectMeta) dies.  The slot is
//    destroyed only if its monitor is quiescent() and the table is not in
//    multi-shard mode; otherwise it is *detached* (the word is cleared, the
//    back-link severed) and lives on until its engine dies.  quiescent()
//    covers every frame — a frame, lazy or not, holds owner() — and every
//    waiter; what it cannot see is a cross-shard message naming the monitor
//    (DESIGN.md §16), hence the multi-shard rule.
//  * release_slots_owned_by, when the engine that created the slot dies.
//
// Every free clears the word that names the slot, so a live word never
// names a freed slot.  slot_of additionally requires the slot's back-link
// to name the word it was handed: any other word reads as free.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "monitor/lock_word.hpp"
#include "monitor/monitor.hpp"
#include "support/annotations.hpp"

namespace rvk::monitor {

struct MonitorTableStats {
  std::uint64_t inflations = 0;
  std::uint64_t re_inflations = 0;    // inflations that reused a freed slot
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

  // Inflates `word`: allocates a slot (reusing a freed one when available),
  // builds the monitor via `factory` (default: a BlockingMonitor), and
  // rewrites `word` to {slot}.  The monitor starts unowned.  `owner_tag`
  // identifies the slot's creator for release_slots_owned_by (the engine
  // passes itself).
  RVK_MAY_ALLOC MonitorBase& inflate(LockWord& word, std::string name,
                                     const Factory& factory = {},
                                     void* owner_tag = nullptr);

  // The monitor behind an inflated word, or nullptr if the word is free or
  // is not the word its slot was inflated through.
  MonitorBase* monitor_at(const LockWord& word) const;

  // The quiescence predicate: no owner, no reservation, empty entry and wait
  // queues, and nobody in transit through acquire()/wait() (a
  // woken-but-not-yet-rescheduled thread still holds a monitor reference —
  // destroying the slot under it would be a use-after-free).
  static bool quiescent(const MonitorBase& m);

  // Multi-shard mode: on while any engine bound to a multi-shard DomainSet
  // is alive.  Each such engine enters before its first table access (shard
  // threads construct their engines concurrently) and leaves after its
  // teardown returned its slots.  While on, the slot pool is guarded by a
  // mutex and release_slot detaches rather than destroys.  Single-shard
  // runs never take the mutex — the lookup fast path stays one branch — and
  // a later single-shard engine is back to destroying quiescent slots.
  // Relaxed is enough: a shard only touches the table after its own
  // engine's constructor entered, in the same thread's program order.
  void enter_multi_shard() {
    multi_shard_engines_.fetch_add(1, std::memory_order_relaxed);
  }
  void leave_multi_shard() {
    multi_shard_engines_.fetch_sub(1, std::memory_order_relaxed);
  }
  bool concurrent() const {
    return multi_shard_engines_.load(std::memory_order_relaxed) != 0;
  }

  // Word-holder teardown: destroys the slot if quiescent() and not
  // concurrent(), else detaches it; clears `word` either way (see
  // release_inflated_slot in lock_word.hpp, which forwards here on the
  // global table).
  void release_slot(LockWord& word) noexcept;

  // Destroys every slot created with `owner_tag`, detached ones included,
  // clearing attached words through the back-links.  Engine teardown: its
  // RevocableMonitors reference the dying engine and cannot outlive it; the
  // scheduler is drained by then, so unconditional destruction is sound.
  void release_slots_owned_by(void* tag);

  std::size_t live_slots() const { return live_; }
  // Side-table bytes attributable to slot bookkeeping (monitor objects
  // themselves are priced by the caller — the table cannot know concrete
  // monitor sizes).
  std::size_t slot_bytes() const;
  // A snapshot, taken under the pool mutex while multi-shard mode is on:
  // an engine reads it at construction while other shards may inflate.
  MonitorTableStats stats() const {
    auto lk = lock();
    return stats_;
  }

 private:
  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  struct Slot {
    std::unique_ptr<MonitorBase> monitor;  // null when free
    LockWord* word = nullptr;   // back-link; null when free or detached
    void* owner_tag = nullptr;  // creator identity (engine teardown)
    std::uint32_t next_free = kNoFree;
    bool ever_used = false;  // re_inflation accounting
  };

  Slot* slot_of(const LockWord& word);
  const Slot* slot_of(const LockWord& word) const;
  // Destroys the slot's monitor and free-lists the index.  Does NOT touch
  // the word — callers clear it first.
  void destroy_slot(std::uint32_t index);

  // Conditional pool lock: a real unique_lock in concurrent (multi-shard)
  // mode, an unowned one otherwise.
  std::unique_lock<std::mutex> lock() const {
    return concurrent() ? std::unique_lock<std::mutex>(mu_)
                        : std::unique_lock<std::mutex>();
  }

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
  std::size_t live_ = 0;
  MonitorTableStats stats_;
  std::atomic<int> multi_shard_engines_{0};
  mutable std::mutex mu_;
};

}  // namespace rvk::monitor
