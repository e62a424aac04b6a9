// The observability recorder: install point, the shard's event ring, derived
// latency metrics (DESIGN.md §10).
//
// One Recorder may be installed per *shard* (per OS thread) at a time,
// mirroring the one-Engine-per-shard invariant (DESIGN.md §16): the install
// point is thread-local, the ring and registry it owns are touched only from
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
// Every thread's events go to the one ring, tagged with its tid; the
// recorder keeps no per-thread table.  A thread's open latency windows ride
// in its control block (rt::VThread::obs), and its name is interned into a
// capped table of distinct names whose index the kDispatch event carries,
// so memory grows with the number of names, never with threads.
//
// Forbidden-region contract (DESIGN.md §10): record() fires inside
// commit/abort, monitor release and abandon windows, so it only stores into
// pre-reserved ring slots and the thread's control block, bumps pre-created
// registry counters and records into pre-sized histograms — it never
// allocates.  Name interning, the one allocating step, happens at spawn and
// dispatch, in scheduler context.  rvkcheck's forbidden-region rule covers
// src/obs, so an allocation reachable from record() fails the static check.
// Per-monitor counters are not kept here: MonitorStats holds them, and the
// figure harness and the open-loop driver publish them as
// monitor.<name>.stats.* (obs/metrics.hpp).
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
  // Capacity of the shard's event ring (rounded up to a power of two);
  // overridable with RVK_OBS_RING.
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

  // Starts a fresh run: the trace restarts here and every thread's recorder
  // state is re-stamped, so thread ids and the virtual clock may restart
  // (the harness constructs a fresh Scheduler per repetition).  Metrics
  // accumulate across runs; the trace reflects the LAST run only.  Called
  // by harness::run_workload; tests and exploration scenarios call it per
  // schedule.
  void begin_run();

  // ---- Consumption ----

  Registry& registry() { return registry_; }

  // The current run's retained events, oldest first.  One ring holds every
  // thread's events in record order, so this is chronological on both
  // clocks and ascending in seq.
  std::vector<Event> snapshot() const;

  // Events the ring overwrote (drop-oldest) over the recorder's lifetime.
  std::uint64_t dropped_events() const { return ring_.dropped(); }

  // The thread name a kDispatch event's `a` field names ("" if none: the
  // name table was full).
  std::string_view lane_name(std::uint64_t lane) const;

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

 private:
  explicit Recorder(RecorderConfig cfg);

  // Folds a parked peer shard's recorder into this one: registries merge
  // (counters add, histograms merge) and thread totals add.  The peer's
  // event ring is NOT merged — its recorded events land in
  // obs.foreign_shard_events.
  void absorb(const Recorder& other);

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

  // `t`'s recorder state, reset first when its stamp names another run.
  // Forbidden-safe: plain stores into the control block.
  rt::ObsState& state_of(rt::VThread* t);

  // Gives `t` its lane-name index on first sight in this run.  Allocates
  // when the name is new — only legal from spawn and dispatch, which run in
  // scheduler context.
  void name_lane(rt::VThread* t);

  void push(rt::VThread* t, EventKind kind, std::uint64_t a, std::uint64_t b);

  // Distinct lane names kept; later names share the tid fallback lane.
  static constexpr std::size_t kMaxLaneNames = 1024;

  std::chrono::steady_clock::time_point epoch_;
  EventRing ring_;
  std::uint64_t run_start_ = 0;  // seq of the current run's first event
  std::uint64_t stamp_;          // the current run's rt::ObsState::stamp

  // Lane names: 1 + an index into lane_names_ is a thread's lane.
  std::vector<std::string> lane_names_;
  std::unordered_map<std::string, std::uint32_t> lane_of_;

  std::uint64_t threads_observed_ = 0;  // lanes named across all runs
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
