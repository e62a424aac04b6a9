// The observability recorder: install point, per-thread rings, derived
// latency metrics (DESIGN.md §10).
//
// One Recorder may be installed per *shard* (per OS thread) at a time,
// mirroring the one-Engine-per-shard invariant (DESIGN.md §16): the install
// point is thread-local, every ring/registry it owns is touched only from
// its own shard's OS thread, and the recorders merge at the end — the last
// uninstall absorbs its parked peers' registries before exporting, so
// RVK_OBS=1 produces one merged metrics document under any shard count
// (peer event *traces* are not merged; they are counted as
// obs.foreign_shard_events so the loss is visible).  The scheduler calls
// on_spawn/on_dispatch/on_switch_out; every monitor and engine event goes
// through the one on_event() dispatcher into Recorder::record.  When no
// recorder is installed anywhere a dispatcher costs a single
// predicted-not-taken test of a plain global — the same zero-cost-off
// discipline as the revocation-safety analyzer.  The yield point itself
// carries NO obs hook: per-thread activity is reconstructed from
// dispatch/switch events, which is exactly as precise (code between yield
// points is atomic) and keeps the hottest path untouched.
//
// Forbidden-region contract (DESIGN.md §10): record() fires inside
// commit/abort, monitor release and abandon windows, so it only stores into
// pre-reserved ring slots, bumps pre-created registry counters and records
// into pre-sized histograms — it never allocates, and it only *finds* a
// thread's ring (an unregistered thread counts as obs.orphan_events).  Ring
// registration, the one allocating step, happens at spawn and dispatch, in
// scheduler context.  rvkcheck's forbidden-region rule covers src/obs, so
// an allocation reachable from record() fails the static check.  Per-monitor
// counters are not kept here: MonitorStats holds them, and the figure
// harness and the open-loop driver publish them as monitor.<name>.stats.*
// (obs/metrics.hpp).
//
// Derived metrics, stamped on the recording path:
//  * monitor.contention_wait_{ticks,ns}  — contend → acquire, any waiter;
//  * monitor.abandon_wait_ticks          — ticks a try_enter waited before
//    giving up (kMonitorAbandon; closes the contend window unfilled);
//  * inversion.resolution_{ticks,ns}     — contend → acquire for waiters
//    that outrank the deposited owner priority: the paper's headline
//    quantity, time from a high-priority thread blocking on an inverted
//    monitor to it holding that monitor (§4);
//  * rollback.latency_{ticks,ns}         — revocation request → the victim
//    restarting its section (kSectionRetry);
//  * rollback.bytes_undone               — per rollback, undo-log entries
//    replayed × 8 bytes/word (§3.1.2), from the engine's kUndoReplay.
// The engine stream also feeds two undo-log counters: log.rollbacks_observed
// (one per kUndoReplay) and log.commit_discards (one per outermost
// kSectionCommit, the commit that discards the thread's whole log).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "rt/scheduler.hpp"
#include "rt/vthread.hpp"
#include "support/annotations.hpp"

namespace rvk::obs {

struct RecorderConfig {
  // Per-thread ring capacity (rounded up to a power of two); overridable
  // with RVK_OBS_RING.
  std::size_t ring_capacity = EventRing::kDefaultCapacity;
};

class Recorder {
 public:
  // Installs a fresh recorder on the calling OS thread; that thread must
  // not already have one.  Under sharding each shard's engine installs its
  // own in its constructor, on its own pinned thread.
  static Recorder* install(RecorderConfig cfg = {});

  // Uninstalls the calling thread's recorder.  While sibling recorders are
  // still installed on other threads, the recorder is parked (its metrics
  // wait for the merge); the LAST uninstall absorbs every parked peer and,
  // if RVK_OBS_METRICS / RVK_OBS_TRACE name files, exports the merged
  // metrics / its own trace there.  No-op when not installed.
  static void uninstall();

  // The calling thread's installed recorder, or nullptr.
  static Recorder* active();

  // True when RVK_OBS is set non-zero, or RVK_OBS_TRACE / RVK_OBS_METRICS
  // name a file (asking for output implies asking for recording).
  static bool env_enabled();

  // ---- Run boundaries ----

  // Starts a fresh run: clears every ring and per-thread registration so
  // thread ids and the virtual clock may restart (the harness constructs a
  // fresh Scheduler per repetition).  Metrics — counters and histograms —
  // accumulate across runs; the event trace reflects the LAST run only.  Called by harness::run_workload; explicit callers
  // (tests, exploration scenarios) invoke it per schedule.
  void begin_run();

  // ---- Consumption ----

  Registry& registry() { return registry_; }

  // Per-thread rings (tid → ring) of the current run.
  const EventRing* ring_of(std::uint32_t tid) const;

  // Merged view of every ring's retained events in global record order.
  // Within one run the sequence is chronological on both clocks.
  std::vector<Event> snapshot() const;

  // Events lost to ring overflow, and events observed for threads that were
  // never registered (spawned before install, or recorded after begin_run
  // from a stale context).
  std::uint64_t dropped_events() const;
  std::uint64_t orphan_events() const { return orphan_events_; }

  // Thread name registered for `tid` in the current run ("" if unknown).
  std::string_view thread_name(std::uint32_t tid) const;

  // Writes the registry (plus ring/drop summary counters) as
  // BENCH_*.json-shaped JSON.  `context` pairs are emitted verbatim.
  // Non-const: folds the ring totals into the registry before serialising.
  void export_metrics(
      std::ostream& os,
      const std::vector<std::pair<std::string, std::string>>& context);

  // Writes the last run's merged event trace in Chrome trace-event JSON
  // (chrome://tracing / Perfetto).  See trace_export.hpp.
  void export_chrome_trace(std::ostream& os) const;

  // ---- Recording handlers (called through the inline dispatchers) ----

  RVK_MAY_ALLOC void record_spawn(rt::VThread* t);         // may allocate
  void record_dispatch(rt::VThread* t);
  void record_switch_out(rt::VThread* t, rt::SwitchReason reason);
  // Every monitor and engine event (a and b as EventKind documents them;
  // `waited` is a kMonitorAbandon's waited ticks).  Forbidden-safe: fires
  // inside commit/abort and monitor release/abandon windows.
  RVK_NO_YIELD void record(EventKind kind, rt::VThread* t, std::uint64_t a,
                           std::uint64_t b, std::uint64_t waited);

  const RecorderConfig& config() const { return cfg_; }

 private:
  explicit Recorder(RecorderConfig cfg);

  // Folds a parked peer shard's recorder into this one: registries merge
  // (counters add, histograms merge), drop/orphan/thread totals add.  The peer's event rings are NOT merged —
  // their retained/recorded events land in obs.foreign_shard_events.
  void absorb(const Recorder& other);

  struct ThreadSide {
    EventRing ring;
    // The thread's block, for identity checks while it runs; once the
    // thread finishes the block may host a later one (never dereferenced).
    rt::VThread* thread = nullptr;
    std::uint32_t tid = 0;
    std::string name;
    int priority = 0;
    // contend → acquire stamps (monitor.contention_wait_*).
    bool wait_pending = false;
    std::uint64_t wait_wall = 0, wait_vclock = 0;
    // Inverted contend → acquire stamps (inversion.resolution_*).
    bool inversion_pending = false;
    std::uint64_t inv_wall = 0, inv_vclock = 0;
    // Revocation request → section retry stamps (rollback.latency_*).
    bool rollback_pending = false;
    std::uint64_t rb_wall = 0, rb_vclock = 0;

    explicit ThreadSide(std::size_t ring_capacity) : ring(ring_capacity) {}
  };

  std::uint64_t wall_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  static std::uint64_t vclock_of(rt::VThread* t) {
    // Scheduler::now() is inline member access; no out-of-line rt symbol is
    // referenced, keeping the library graph acyclic (obs below rt).
    return t != nullptr && t->scheduler() != nullptr ? t->scheduler()->now()
                                                     : 0;
  }

  // Find-only; nullptr (plus an orphan count) when `t` was never
  // registered.  Safe in forbidden regions.
  ThreadSide* side_of(rt::VThread* t);

  // Find-or-register.  Allocates on first sight of `t` — only legal from
  // spawn and dispatch, which run in scheduler context.
  ThreadSide& ensure_side(rt::VThread* t);

  void push(ThreadSide& side, rt::VThread* t, EventKind kind, std::uint64_t a,
            std::uint64_t b);

  RecorderConfig cfg_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t seq_ = 0;

  std::unordered_map<std::uint32_t, std::unique_ptr<ThreadSide>> threads_;
  ThreadSide* current_side_ = nullptr;  // side of the running thread
  std::uint64_t orphan_events_ = 0;
  std::uint64_t dropped_before_run_ = 0;  // drops in rings begin_run() cleared
  std::uint64_t threads_observed_ = 0;    // registrations across all runs
  // Events recorded by absorbed peer shards, whose traces the merge drops
  // (metrics keep everything; only the event *ring* contents are lost).
  std::uint64_t foreign_shard_events_ = 0;

  Registry registry_;
  // Pre-created histogram/counter references for record().
  Histogram* contention_wait_ticks_;
  Histogram* contention_wait_ns_;
  Histogram* abandon_wait_ticks_;
  Histogram* inversion_ticks_;
  Histogram* inversion_ns_;
  Histogram* rollback_ticks_;
  Histogram* rollback_ns_;
  Histogram* rollback_bytes_;
  std::uint64_t* log_rollbacks_;
  std::uint64_t* log_commit_discards_;
};

namespace detail {
// Process-wide count of installed recorders, across every shard.  A plain
// global, deliberately NOT thread-local: its address is a link-time
// constant, so the inline relaxed load in the dispatchers below stays
// valid across fiber switches.  It is only a fast-path gate — the
// authoritative per-shard slot is the thread_local behind
// current_recorder().
extern std::atomic<int> g_obs_active;
// Out-of-line TLS read (CLAUDE.md): each shard's OS thread sees its own
// recorder.  Like rt::current_scheduler(), this must never be inlined into
// fiber frames — GCC caches the TLS-derived address across swapcontext,
// which UBSan flags and which would go stale under any scheduler-to-OS-
// thread remapping.  The underlying thread_local lives in recorder.cpp and
// is never named from a header.
Recorder* current_recorder();

// Disabled-path gate shared by every dispatcher: one predicted-not-taken
// relaxed load when no recorder is installed anywhere, and only then the
// out-of-line TLS read for this shard's slot (which may still be null on a
// shard that never installed one).
inline Recorder* active_or_null() {
  if (g_obs_active.load(std::memory_order_relaxed) == 0) [[likely]] {
    return nullptr;
  }
  return current_recorder();
}
}  // namespace detail

inline bool recording() { return detail::active_or_null() != nullptr; }

// ---- Instrumentation dispatchers (null-checked, [[unlikely]] taken) ----

inline void on_spawn(rt::VThread* t) {
  if (Recorder* r = detail::active_or_null()) [[unlikely]] {
    r->record_spawn(t);
  }
}

inline void on_dispatch(rt::VThread* t) {
  if (Recorder* r = detail::active_or_null()) [[unlikely]] {
    r->record_dispatch(t);
  }
}

inline void on_switch_out(rt::VThread* t, rt::SwitchReason reason) {
  if (Recorder* r = detail::active_or_null()) [[unlikely]] {
    r->record_switch_out(t, reason);
  }
}

// The one monitor + engine dispatcher: the monitor layer's acquire,
// release and abandon paths and Engine::publish all record through here.
inline void on_event(EventKind kind, rt::VThread* t, std::uint64_t a,
                     std::uint64_t b = 0, std::uint64_t waited = 0) {
  if (Recorder* r = detail::active_or_null()) [[unlikely]] {
    r->record(kind, t, a, b, waited);
  }
}

inline void on_run_begin() {
  if (Recorder* r = detail::active_or_null()) [[unlikely]] {
    r->begin_run();
  }
}

}  // namespace rvk::obs
