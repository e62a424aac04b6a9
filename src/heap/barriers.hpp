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
// observes a foreign mark escalates to the engine hook, which pins the
// writer's enclosing monitors as non-revocable.
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
// synchronized inflates it into a MonitorTable slot, and free again once a
// scavenge deflates that slot.
//
// Writer-mark granularity is per object (not per slot): the paper does not
// specify it, and per-object is the classic Jikes-style header-word choice.
// A mark is *advisory*: it may be stale (the writing section already
// committed or aborted), in which case the engine hook validates it against
// the writer's section epoch and clears it.
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

// Access descriptor passed to the barrier trace dispatch.  Two consumers
// subscribe independently: jmm/'s execution recorder (tests) and the
// revocation-safety analyzer (analysis/, RVK_ANALYZE=1).  The dispatch is
// always compiled; with no consumer installed it costs one predicted
// pointer-null test per access.
//
// (base, offset) is the location's identity and MUST match the identity the
// undo log records for the same slot — jmm/ correlates undo events with
// write events by it, and analysis/ checks barrier coverage with it.
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
  const void* base;
  std::uint32_t offset;
  Word value;      // value read, or new value written
  Word old_value;  // previous value (writes only)
};

namespace detail {
// Dependency tracking on/off (the jmm/ guard; engine-controlled, ablatable).
extern bool g_track_dependencies;
// Undo-log deduplication on/off (engine-controlled extension).
extern bool g_dedup_logging;
// Engine hook invoked when a read observes a (possibly stale) writer mark.
// May clear the mark; must not block.
extern void (*g_tracked_read_hook)(ObjectMeta& meta, const void* base);
// Execution-trace hook (jmm/ recorder); nullptr outside tests.
extern void (*g_trace_access)(const TraceAccess&);
// Revocation-safety analyzer hook (analysis/); nullptr unless RVK_ANALYZE.
extern void (*g_analysis_access)(const TraceAccess&);
}  // namespace detail

// Installs the execution-trace hook (nullptr to uninstall).
void set_trace_hook(void (*hook)(const TraceAccess&));

// Installs the analyzer's access hook (nullptr to uninstall).
void set_analysis_hook(void (*hook)(const TraceAccess&));

inline void trace_access(TraceAccess::Kind kind, const void* base,
                         std::uint32_t offset, Word value, Word old_value) {
  if (detail::g_trace_access != nullptr) [[unlikely]] {
    detail::g_trace_access(TraceAccess{kind, base, offset, value, old_value});
  }
  if (detail::g_analysis_access != nullptr) [[unlikely]] {
    detail::g_analysis_access(TraceAccess{kind, base, offset, value, old_value});
  }
}

// Enables/disables writer-mark maintenance (set by the engine when the JMM
// guard is toggled).
void set_dependency_tracking(bool on);
bool dependency_tracking();

// Enables/disables undo-log deduplication (EngineConfig::dedup_logging).
void set_dedup_logging(bool on);
bool dedup_logging();

// Installs the engine hook (nullptr to uninstall).
void set_tracked_read_hook(void (*hook)(ObjectMeta&, const void*));

// The write barrier.  `addr` is the slot being stored to; `base`/`offset`
// identify it in paper terms (reference + offset).  The fast path is the
// paper's single test (§1.1), here one TLS load plus a null compare:
// rt::section_vthread() caches "the running thread, iff it is inside a
// synchronized section" (maintained at section entry/exit and across fiber
// switches), so out-of-section stores touch no VThread state at all.  The
// common in-section store is one predicted branch plus the log's
// bump-pointer append — the dedup-enabled test reads per-thread state
// (VThread::log_dedup, stamped by the engine) rather than a process global,
// so no extra cache line is touched on the hot path.
RVK_MAY_ALLOC inline void write_barrier(log::EntryKind kind, ObjectMeta& meta,
                                        Word* addr, const void* base,
                                        std::uint32_t offset) {
  rt::VThread* t = rt::section_vthread();
  if (t == nullptr) [[likely]] {
    return;  // fast path: not in a section
  }
  // First logged store of a biased section: give it a real frame before the
  // log grows past its watermark (DESIGN.md §11).
  if (t->lazy_frame) [[unlikely]] rt::materialize_lazy_frame(t);
  if (!t->log_dedup || t->dedup.should_log(addr, t->current_frame_id)) {
    t->undo_log.record(kind, addr, *addr, base, offset);
  }
  if (detail::g_track_dependencies) {
    meta.writer_tid = t->id();
    meta.writer_epoch = t->section_epoch;
    meta.writer_frame = t->current_frame_id;
  }
}

// The read barrier.  Fast path: one load and compare against zero.  A
// marked object most often belongs to the *reading* thread's own live
// section (it re-reads its own speculation), which is filtered inline
// before escalating to the engine hook.
inline void read_barrier(ObjectMeta& meta, const void* base) {
  if (meta.writer_tid != 0) [[unlikely]] {
    rt::VThread* t = rt::current_vthread();
    if (t != nullptr && meta.writer_tid == t->id() &&
        meta.writer_epoch == t->section_epoch && t->sync_depth > 0) {
      return;  // own live speculation: no dependency, mark stays
    }
    if (detail::g_tracked_read_hook != nullptr) {
      detail::g_tracked_read_hook(meta, base);
    }
  }
}

}  // namespace rvk::heap
