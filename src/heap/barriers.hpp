// Read/write barriers over the managed heap.
//
// Paper §1.1: "The compiler inserts code at synchronization points …
// injecting write barriers to log updates to shared state performed by
// threads active in synchronized sections … all compiled code needs at least
// a fast-path test on every non-local update to check if the thread is
// executing within a synchronized section, with the slow path logging the
// update if it is."
//
// In this reproduction the "compiled code" is the accessor layer of heap/:
// every store to a HeapObject slot, HeapArray element, static variable or
// VolatileVar funnels through write_barrier(), whose fast path is exactly
// the paper's test (`sync_depth > 0` on the current green thread).  Read
// barriers serve the JMM-consistency guard of §2.2: each object carries a
// small writer mark (who last stored to it speculatively); a read that
// observes a foreign mark escalates to the engine through its link
// (rt/engine_link.hpp), which pins the writer's enclosing monitors as
// non-revocable.  Both barriers test only the running thread's own state;
// nothing they consult is process-wide.
#pragma once

#include <cstdint>

#include "log/undo_log.hpp"
#include "monitor/lock_word.hpp"
#include "rt/scheduler.hpp"
#include "support/annotations.hpp"

namespace rvk::heap {

using Word = log::Word;

// Per-object header: the speculative-writer mark plus the compact lock word
// (DESIGN.md §13) that makes every HeapObject/HeapArray directly lockable
// with no pre-allocated monitor — the word is free until the object's first
// synchronized inflates it into a MonitorTable slot, and free again once the
// slot is freed (the object dies, or the engine that inflated it does).
//
// Writer-mark granularity is per object (not per slot): the paper does not
// specify it, and per-object is the classic Jikes-style header-word choice.
// A mark is *advisory*: it may be stale (the writing section already
// committed or aborted), in which case the engine validates it against the
// writer's section epoch and clears it.
struct ObjectMeta {
  std::uint32_t writer_tid = 0;    // 0 = no speculative writer recorded
  std::uint32_t writer_epoch = 0;  // writer's section_epoch at store time
  std::uint64_t writer_frame = 0;  // writer's innermost frame at store time
  monitor::LockWord lock;          // free, or this object's monitor slot

  // Clears the writer mark ONLY — the lock word is monitor state, not
  // speculation metadata, and survives mark validation.
  void clear() {
    writer_tid = 0;
    writer_epoch = 0;
    writer_frame = 0;
  }

  // Dying with an inflated word returns (or detaches) the table slot so a
  // recycled address can never alias the old monitor.
  ~ObjectMeta() { monitor::release_inflated_slot(lock); }
  ObjectMeta() = default;
  ObjectMeta(const ObjectMeta&) = delete;
  ObjectMeta& operator=(const ObjectMeta&) = delete;
};

// Access descriptor the accessors trace.  While any engine in the process
// has a subscriber (rt::detail::g_access_observers), trace_access hands it
// to the acting engine (rt::acting_engine_link), which passes it to its own
// observers: jmm/'s execution recorder (tests) and the revocation-safety
// analyzer (analysis/, RVK_ANALYZE=1).  With no subscriber anywhere it costs
// one predicted relaxed load per access.
//
// `addr` is the slot, the location identity the undo log records: analysis/
// checks barrier coverage by it, and jmm/ maps undo entries back to the
// (base, offset) pair — the paper's (reference, offset) — traced with it.
struct TraceAccess {
  enum class Kind : std::uint8_t {
    kRead,
    kWrite,
    kVolatileRead,
    kVolatileWrite,
    // A store through a *_unlogged accessor: the barrier the compiler would
    // have elided (§1.1).  Never recorded by jmm/ (it models a store proven
    // thread-local); the analyzer flags it when it happens inside a
    // synchronized section, where eliding the barrier breaks rollback.
    kUnloggedWrite,
  };
  Kind kind;
  const Word* addr;
  const void* base;
  std::uint32_t offset;
  Word value;      // value read, or new value written
  Word old_value;  // previous value (writes only)
};

RVK_TRUSTED(
    "the virtual on_access reaches the engine's subscribers, which rvkcheck "
    "cannot tell from same-named functions; subscribers are diagnostic tools "
    "(analyzer, JMM trace) that may allocate and never run in measured runs")
inline void trace_access(TraceAccess::Kind kind, const Word* addr,
                         const void* base, std::uint32_t offset, Word value,
                         Word old_value) {
  if (rt::detail::g_access_observers.load(std::memory_order_relaxed) != 0)
      [[unlikely]] {
    if (rt::EngineLink* link = rt::acting_engine_link()) {
      link->on_access(TraceAccess{kind, addr, base, offset, value, old_value});
    }
  }
}

// The write barrier.  `addr` is the slot being stored to.  The fast path is the
// paper's single test (§1.1), here one TLS load plus a null compare:
// rt::section_vthread() caches "the running thread, iff it is inside a
// synchronized section" (maintained at section entry/exit and across fiber
// switches), so out-of-section stores touch no VThread state at all.  The
// common in-section store is one predicted branch, one probe of the
// thread's write filter (log/write_filter.hpp) and, on a miss, the log's
// bump-pointer append; the writer mark is stamped when the thread's own
// marks_writes flag says its engine guards the JMM (§2.2).
RVK_MAY_ALLOC inline void write_barrier(ObjectMeta& meta, Word* addr) {
  rt::VThread* t = rt::section_vthread();
  if (t == nullptr) [[likely]] {
    return;  // fast path: not in a section
  }
  // First logged store of a biased section: give it a real frame before the
  // log grows past its watermark (DESIGN.md §11).
  if (t->lazy_frame) [[unlikely]] {
    t->scheduler()->engine_link()->materialize_lazy_frame(t);
  }
  if (t->write_filter.first_store(addr, t->current_frame_id)) {
    t->undo_log.record(addr, *addr);
  }
  if (t->marks_writes) {
    meta.writer_tid = t->id();
    meta.writer_epoch = t->section_epoch;
    meta.writer_frame = t->current_frame_id;
  }
}

// The read barrier.  Fast path: one load and compare against zero.  A
// marked object most often belongs to the *reading* thread's own live
// section (it re-reads its own speculation), which is filtered inline
// before escalating to the acting engine (rt::acting_engine_link: the
// reader's shard, or for host code the OS thread's engine).
inline void read_barrier(ObjectMeta& meta) {
  if (meta.writer_tid != 0) [[unlikely]] {
    rt::VThread* t = rt::current_vthread();
    if (t != nullptr && meta.writer_tid == t->id() &&
        meta.writer_epoch == t->section_epoch && t->sync_depth > 0) {
      return;  // own live speculation: no dependency, mark stays
    }
    if (rt::EngineLink* link = rt::acting_engine_link()) {
      link->on_tracked_read(meta);
    }
  }
}

}  // namespace rvk::heap
