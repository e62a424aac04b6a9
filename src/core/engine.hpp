// The revocation engine — the paper's primary contribution.
//
// Engine ties the substrates together into the scheme of §1.1/§2/§3:
//
//  * synchronized(m, body) runs `body` as a *speculative* synchronized
//    section: a Frame records the undo-log watermark at entry; a rollback
//    exception unwinding through the frame replays the log suffix in
//    reverse, releases the monitor, and — if the frame is the rollback
//    target — re-executes the body from the start ("the end effect of the
//    rollback is as if the low-priority thread never executed the section").
//  * Priority inversion is detected at contended acquisition (deposited
//    owner priority < acquirer priority) and/or by a periodic background
//    sweep; resolution posts a revocation request that the victim serves at
//    its next yield point (§4).
//  * Deadlock is detected by walking the waits-for chain at blocking time
//    (and from the scheduler's stall hook); a revocable victim in the cycle
//    is rolled back, breaking the cycle (§1.1).
//  * JMM consistency (§2.2): frames become non-revocable when a read-write
//    dependency escapes them (dependency-tracking read barrier), when a
//    volatile write escapes, when a native method runs inside the section,
//    or when the section executes Object.wait().  Requests against pinned
//    frames are refused; requests that race with a pin are dropped at
//    delivery.
//
// One Engine may be active per *shard* at a time: constructed with a
// rt::Domain current (DomainSet setup runs there), the engine binds to that
// shard — its scheduler, its mailbox revoker, the object-monitor slots it
// inflates — and the process-global barrier hooks become a refcounted shared
// install whose trampolines resolve the acting engine per shard.  In the
// classic unsharded runtime (no domain entered) this degenerates to the old
// rule: one engine per OS thread, stored in a thread-local.  Either way,
// construct the engine after its Scheduler and destroy it before, and keep
// barrier-programming config (jmm_guard) identical across co-active
// engines — the constructor enforces it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "core/frame.hpp"
#include "core/revocable_monitor.hpp"
#include "core/rollback.hpp"
#include "heap/barriers.hpp"
#include "heap/object.hpp"
#include "monitor/monitor_table.hpp"
#include "rt/domain.hpp"
#include "rt/scheduler.hpp"
#include "support/annotations.hpp"

namespace rvk::analysis {
class Analyzer;
}

namespace rvk::obs {
class Registry;
}

namespace rvk::core {

// When the runtime looks for priority inversion (§1.1: "either at lock
// acquisition, or periodically in the background").
enum class DetectionMode : std::uint8_t {
  kAtAcquire,
  kBackground,
  kBoth,
  kNone,  // revocation machinery active (logging, frames) but never triggered
};

// Turning revocation off entirely while keeping frames and logging (to
// isolate barrier overhead) is detection = kNone plus deadlock_detection =
// false.
struct EngineConfig {
  DetectionMode detection = DetectionMode::kAtAcquire;

  // Dispatches between background sweeps (kBackground/kBoth only).
  std::uint64_t background_period = 25;

  // §2.2 JMM guard: track read-write dependencies and pin non-revocable
  // frames.  Disabling it is ONLY sound for workloads where all accesses to
  // shared data are monitor-mediated (like the paper's micro-benchmark).
  bool jmm_guard = true;

  // Deadlock detection/resolution by revocation (§1.1).
  bool deadlock_detection = true;

  // Where deadlock cycles are looked for: at every contended acquisition
  // (eager, the default) and/or from the scheduler's stall hook when nothing
  // is runnable (lazy; always on when deadlock_detection is).  Ablation knob.
  bool deadlock_at_acquire = true;

  // Virtual-tick backoff (scaled by retry count) a deadlock victim sleeps
  // before re-running its section, so the thread the monitor was handed to
  // can actually take it; prevents a high-priority victim from stealing the
  // handoff back and re-forming the cycle forever.
  std::uint64_t deadlock_backoff_ticks = 64;

  // Livelock guard (extension; the paper notes "a sequence of deadlock
  // revocations may result in livelock" without solving it): a section
  // instance revoked more than this many times is pinned non-revocable.
  int revocation_budget = std::numeric_limits<int>::max();

  // Virtual-tick backoff before a revoked section retries (0 = rely on the
  // monitor's handoff reservation alone, which already orders the
  // high-priority thread first).
  std::uint64_t retry_backoff_ticks = 0;

  // Install the revocation-safety analyzer (analysis/) for this engine's
  // lifetime: lockset race detection, barrier-bypass and forbidden-region
  // lints, pin-closure audits.  ORed with the RVK_ANALYZE environment
  // variable, so any binary can be analyzed without a rebuild.
  bool analyze = false;

  // Install the observability recorder (obs/) for this engine's lifetime:
  // per-thread event rings, the metrics registry, inversion-latency
  // profiling.  ORed with the RVK_OBS / RVK_OBS_TRACE / RVK_OBS_METRICS
  // environment knobs.  If a recorder is already installed (a harness or
  // test owns one across engine lifetimes), the engine records through it
  // and leaves its lifetime alone.
  bool observe = false;

  // Biased section entry + lazy frame materialisation (DESIGN.md §11):
  // RevocableMonitors reserve themselves for their last owner, and the
  // engine defers frame registration/undo-log arming for a biased grant
  // until the section's first logged write, yield point, nested entry, or
  // blocking call — so empty/read-only uncontended sections commit in O(1)
  // with zero log traffic.  Revocation semantics are unchanged: a section
  // that reaches a yield point is exactly as revocable as before.  The
  // RVK_BIAS=0 environment knob (resolved in the constructor) clears this,
  // reproducing pre-PR-5 behaviour bit-for-bit.
  bool bias = true;
};

struct EngineStats {
  std::uint64_t sections_entered = 0;
  std::uint64_t sections_committed = 0;
  std::uint64_t frames_aborted = 0;       // frames unwound by rollbacks
  std::uint64_t rollbacks_completed = 0;  // target frames restarted
  std::uint64_t revocations_requested = 0;
  std::uint64_t revocations_denied_pinned = 0;  // target non-revocable
  std::uint64_t revocations_denied_budget = 0;
  std::uint64_t revocations_dropped_stale = 0;  // invalid at delivery
  std::uint64_t revocations_lost_to_commit = 0; // section finished first
  std::uint64_t inversions_detected_acquire = 0;
  std::uint64_t inversions_detected_background = 0;
  std::uint64_t deadlocks_detected = 0;
  std::uint64_t deadlocks_broken = 0;
  std::uint64_t frames_pinned = 0;
  std::uint64_t foreign_reads_observed = 0;
  std::uint64_t spec_allocs_reclaimed = 0;  // allocations undone by rollbacks
  std::uint64_t words_undone = 0;
  std::uint64_t log_appends = 0;
  // Abortable section entries (try_synchronized / try_section_enter) that
  // gave up — deadline expired or cancellation requested (DESIGN.md §14).
  std::uint64_t entry_aborts = 0;
};

class Engine {
 public:
  Engine(rt::Scheduler& sched, EngineConfig cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineConfig& config() const { return cfg_; }
  rt::Scheduler& scheduler() const { return sched_; }

  // The scheduler shard this engine bound to at construction (the domain
  // current on the constructing thread), or nullptr in the classic
  // unsharded runtime.
  rt::Domain* domain() const { return domain_; }

  // The engine acting on this OS thread: the entered shard's engine when a
  // domain is current, else the thread's classic engine slot.  nullptr when
  // neither exists.  This is what the barrier trampolines resolve through.
  static Engine* active();

  // Creates an engine-owned revocable monitor.
  RevocableMonitor* make_monitor(std::string name);

  // Java: "every object can act as a monitor" (§2).  Resolves the monitor
  // behind `obj`'s compact lock word (DESIGN.md §13), inflating a
  // RevocableMonitor into the process-wide MonitorTable on first use.  The
  // slot lives until the object dies (a busy slot, or any slot under a
  // multi-shard set, then detaches and lives on) or this engine is
  // destroyed, whichever comes first.
  RevocableMonitor* monitor_of(const heap::HeapObject* obj);

  // Runs `body` as a speculative synchronized section guarded by `m`
  // (Java's `synchronized (m) { body(); }`).  `body` re-executes from the
  // start if the section is revoked; captures are re-read, so by-reference
  // captures of heap state behave exactly like the saved locals/operand
  // stack of the paper's bytecode transformation.  Any non-heap effects in
  // `body` must be idempotent or guarded by Cleanup/native scopes.
  template <typename F>
  void synchronized(RevocableMonitor& m, F&& body) {
    run_section([&m]() -> RevocableMonitor& { return m; }, std::nullopt,
                body);
  }

  // synchronized(obj) { body; } — Java's object-monitor form: resolves
  // monitor_of(obj) at every entry attempt, retries included.
  template <typename F>
  void synchronized(const heap::HeapObject* obj, F&& body) {
    run_section(object_monitor(obj), std::nullopt, body);
  }

  // Abortable synchronized (DESIGN.md §14): as synchronized(m, body), but
  // gives up — returning false with nothing held and nothing run — if the
  // section cannot be ENTERED within `ticks` virtual ticks, or if
  // cancellation was requested for the calling thread
  // (monitor::MonitorBase::cancel).  One absolute deadline spans rollback
  // retries: a revoked body re-enters with the remaining budget, and once
  // the deadline has passed a retry degrades to a single non-blocking
  // attempt.  The deadline bounds entry only — a body that acquired runs to
  // completion (commit or rollback) exactly like synchronized().
  template <typename F>
  bool try_synchronized(RevocableMonitor& m, std::uint64_t ticks, F&& body) {
    return run_section([&m]() -> RevocableMonitor& { return m; },
                       sched_.now() + ticks, body);
  }

  // try_synchronized for Java's object-monitor form, re-resolving the
  // monitor on every retry like synchronized(obj).
  template <typename F>
  bool try_synchronized(const heap::HeapObject* obj, std::uint64_t ticks,
                        F&& body) {
    return run_section(object_monitor(obj), sched_.now() + ticks, body);
  }

  // ---- Low-level section protocol ----
  //
  // The primitives synchronized() is built from, exposed for clients that
  // cannot express sections as C++ scopes — the vm/ interpreter implements
  // the paper's actual bytecode transformation (§3.1.1) with these:
  // monitorenter = section_enter, monitorexit = section_commit, and the
  // injected rollback-exception handler = catch RollbackException, pop
  // frames with section_abort until the target, then finish_rollback and
  // transfer control back to the monitorenter.
  //
  // Contract: frames are strictly LIFO per thread; every section_enter is
  // matched by exactly one section_commit or section_abort.

  // Enters a section on `m` (blocks; may throw RollbackException targeting
  // an ENCLOSING frame).  `retries` seeds the frame's revocation budget.
  // Returns the new frame's id.
  std::uint64_t section_enter(RevocableMonitor& m, int retries = 0) {
    return enter_frame(m, current_thread_checked(), retries, std::nullopt);
  }

  // Abortable monitorenter: as section_enter, but bounded by `ticks` and
  // responsive to cancellation.  Returns the new frame id, or 0 if entry was
  // abandoned (nothing held, no frame pushed).  Composes with the biased
  // lazy fast path: an uncancelled biased grant is taken without arming a
  // timer.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC std::uint64_t try_section_enter(
      RevocableMonitor& m, std::uint64_t ticks, int retries = 0) {
    return enter_frame(m, current_thread_checked(), retries,
                       sched_.now() + ticks);
  }

  // Commits the innermost frame (Java monitorexit / abrupt completion:
  // updates stand, monitor released).
  void section_commit();

  // Aborts the innermost frame (undo + release); returns its frame id.
  void section_abort();

  // Innermost active frame id of the current thread (0 if none).
  std::uint64_t current_frame() const;

  // Call after aborting down to (and including) the rollback target:
  // clears the in-rollback flag, sheds the victim boost, counts the
  // completed rollback, and applies the retry backoff.
  void finish_rollback(const RollbackException& e, int retries);

  // Marks every active frame of the current thread non-revocable.  Wrap
  // irrevocable actions (I/O, syscalls) in a NativeCallScope, which calls
  // this — §2.2: "Calling a native method within a monitor also forces
  // non-revocability of the monitor (and all of its enclosing monitors)".
  void pin_current_frames(PinReason reason);

  const EngineStats& stats();
  void reset_stats();

  // Folds this engine's stats and every registered monitor's stats into an
  // obs registry ("engine.*", "monitor.<name>.stats.*") — the consolidated
  // export surface for EngineStats/MonitorStats (obs/metrics.hpp) — plus
  // what the process-wide MonitorTable counted since this engine was built
  // or last published ("montable.*").
  void publish_metrics(obs::Registry& reg);

  // Monitors currently registered with this engine (for reports/sweeps).
  const std::vector<RevocableMonitor*>& monitors() const { return monitors_; }

  // ---- Internal protocol (used by RevocableMonitor and hooks) ----

  // Contended-acquire processing for thread `t` wanting `m`: inversion
  // detection (kAtAcquire) and deadlock detection.  May post a revocation
  // request against m's owner, or throw RollbackException if `t` itself is
  // chosen as a deadlock victim.
  void on_contended_acquire(rt::VThread* t, RevocableMonitor& m);

  void on_blocked(rt::VThread* t, RevocableMonitor& m);
  void on_unblocked(rt::VThread* t, RevocableMonitor& m);
  void on_wait_pin(rt::VThread* t);

  // Posts a revocation request for the oldest frame of `m` held by `owner`.
  // Returns false (and records why) if the frame is non-revocable or over
  // budget.  `deadlock` marks deadlock-breaking requests (victim backoff);
  // `boost_to` is the priority of the thread being cleared a path (the
  // victim is transiently raised to it until its rollback completes: under
  // the strict-priority scheduler medium-priority threads would otherwise
  // starve the victim of the CPU it needs to reach a yield point, recreating
  // the inversion inside the mechanism; under round-robin it is a no-op).
  bool request_revocation(rt::VThread* owner, RevocableMonitor& m,
                          bool deadlock = false, int boost_to = 0);

  RVK_MAY_ALLOC ThreadSync& sync_of(rt::VThread* t);

  // sync_of for threads the engine has already registered (any thread that
  // ever entered a section): one stamped-pointer load, never a hash insert.
  // The commit/abort/boost paths run inside forbidden regions where
  // allocation is barred, and they only ever operate on registered threads
  // — rvkcheck's forbidden-region rule holds them to this variant.
  RVK_NO_YIELD ThreadSync& sync_of_registered(rt::VThread* t);

  // Read-only view of a thread's section state; unlike sync_of it never
  // inserts, so it is safe from scheduler context (exploration invariant
  // checks between dispatches).  nullptr if the thread never entered a
  // section.
  const ThreadSync* find_sync(const rt::VThread* t) const;

  // Adds / removes an observer of this engine's event stream (EngineEvent).
  // Call outside forbidden regions — from host code or between sections —
  // never from an observer callback.  Any subscriber keeps the biased lazy
  // path off (DESIGN.md §11), so every frame is seen as it happens.
  void subscribe(EngineObserver* o) { observers_.push_back(o); }
  void unsubscribe(EngineObserver* o) {
    observers_.erase(std::remove(observers_.begin(), observers_.end(), o),
                     observers_.end());
  }

 private:
  // The one retry loop behind synchronized/try_synchronized: enters a frame
  // on `resolve()` (called afresh on every retry), runs `body`, commits; a
  // rollback targeting this frame retries, one targeting an enclosing frame
  // unwinds on.  `deadline` (absolute virtual tick) spans all retries;
  // without one entry blocks.  Returns false iff entry was abandoned.
  template <typename Resolve, typename F>
  bool run_section(Resolve&& resolve,
                   const std::optional<std::uint64_t>& deadline,
                   F&& body) {
    rt::VThread* t = current_thread_checked();
    int budget_used = 0;
    for (;;) {
      const std::uint64_t frame_id =
          enter_frame(resolve(), t, budget_used, deadline);
      if (frame_id == 0) return false;
      try {
        body();
        commit_frame(t);
        return true;
      } catch (RollbackException& e) {
        abort_frame(t, frame_id);
        if (e.target_frame() != frame_id) throw;  // unwind to outer section
        // This frame is the rollback target: retry from the top.
        ++budget_used;
        finish_rollback(e, budget_used);
      } catch (...) {
        // An ordinary (user) exception: Java semantics release the monitor
        // on abrupt completion but do NOT undo the section's updates.
        commit_frame(t);
        throw;
      }
    }
  }

  // run_section resolver for the object-monitor form.
  auto object_monitor(const heap::HeapObject* obj) {
    return [this, obj]() -> RevocableMonitor& { return *monitor_of(obj); };
  }

  rt::VThread* current_thread_checked() const {
    rt::VThread* t = sched_.current_thread();
    RVK_CHECK_MSG(t != nullptr, "section entered outside a green thread");
    return t;
  }

  // Acquires `m` for `t` and pushes the section's frame, returning its id.
  // Without a `deadline` entry blocks (MonitorBase::acquire); with one it is
  // abortable (MonitorBase::try_enter with the ticks remaining) and returns
  // 0 when abandoned.  Either may throw RollbackException targeting an
  // enclosing frame.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC std::uint64_t enter_frame(
      RevocableMonitor& m, rt::VThread* t, int budget_used,
      const std::optional<std::uint64_t>& deadline);
  // Tails of enter_frame: the lazy-register grant (DESIGN.md §11) and the
  // real-frame push after the monitor was acquired.
  RVK_MAY_ALLOC std::uint64_t lazy_enter(RevocableMonitor& m, rt::VThread* t,
                                         int budget_used);
  RVK_MAY_ALLOC std::uint64_t push_frame(RevocableMonitor& m, rt::VThread* t,
                                         int budget_used);
  // commit/abort are the §3.1.2 undo-then-release sequences; rvkcheck
  // treats them as forbidden roots (no yield/block/alloc on any path).
  RVK_NO_YIELD void commit_frame(rt::VThread* t);
  RVK_NO_YIELD void abort_frame(rt::VThread* t, std::uint64_t expected_frame);

  // Turns the lazy registers in ThreadSync into a real, revocable Frame
  // (DESIGN.md §11).  Installed as rt's lazy-frame hook; also called
  // directly from every engine path that walks the current thread's frames.
  void materialize_lazy(rt::VThread* t);
  static void lazy_frame_trampoline(rt::VThread* t);
  void after_rollback_backoff(rt::VThread* t, int retries,
                              bool deadlock_victim);
  void begin_boost(rt::VThread* victim, int boost_to);
  void end_boost(rt::VThread* t);

  // Revocation delivery (installed as the scheduler's deliverer): validates
  // the pending request against the thread's live frames and either throws
  // RollbackException or drops the request.  MAY_YIELD: the throw unwinds
  // into scheduler-visible state, which is exactly what a forbidden region
  // must never do — the annotation is how rvkcheck sees through the
  // `throw` (inference alone computes the empty set for it).
  RVK_MAY_YIELD void deliver(rt::VThread* t);

  // Deadlock detection: walks the waits-for chain assuming `t` blocks on
  // `m`; on a cycle, picks and revokes a victim.  Returns true if a cycle
  // was found and broken.  Throws if `t` itself is the victim.
  bool detect_and_break_deadlock(rt::VThread* t, RevocableMonitor& m);

  // Background sweep: request revocation wherever a queued waiter outranks
  // the deposited owner priority.  Runs in scheduler context.
  void background_sweep();

  // Stall hook: last-chance deadlock resolution when nothing is runnable.
  bool on_stall();

  // JMM guard plumbing (static trampolines resolve via Engine::active()).
  void on_tracked_read(heap::ObjectMeta& meta);
  // Pins every unpinned frame of `t` with id <= frame_id (§2.2 upward
  // closure), counting and publishing the pin.
  void pin_frames_up_to(rt::VThread* t, std::uint64_t frame_id,
                        PinReason reason);
  static void tracked_read_trampoline(heap::ObjectMeta& meta,
                                      const void* base);
  static void alloc_trampoline(heap::Heap* heap, heap::HeapObject* obj);
  void on_alloc(heap::Heap* heap, heap::HeapObject* obj);

  rt::VThread* thread_by_id(std::uint32_t tid);

  // True when any transition has an audience: a subscriber or the obs
  // recorder.  Hot paths test it before publishing; it is also the lazy-path
  // gate in enter_frame.  Inline in engine.cpp, its only user.
  bool observed() const;

  // The engine's one observation point: hands the transition to the obs
  // recorder, then to every subscriber.  Runs inside transitions — often
  // inside forbidden regions — so both sinks obey the no-alloc/no-yield
  // contract (the recorder's handler is verified separately).
  RVK_TRUSTED(
      "observers_ holds virtual EngineObserver callbacks rvkcheck cannot "
      "resolve; subscribers must be forbidden-safe, save the diagnostic ones "
      "(analyzer, exploration invariants, the JMM trace recorder), which may "
      "allocate and never run in measured runs")
  void publish(obs::EventKind kind, rt::VThread* t, std::uint64_t frame,
               const RevocableMonitor* m, std::uint64_t aux = 0);

  rt::Scheduler& sched_;
  rt::Domain* domain_ = nullptr;  // bound shard; nullptr when unsharded
  EngineConfig cfg_;
  EngineStats stats_;

  std::unordered_map<rt::VThread*, std::unique_ptr<ThreadSync>> sync_states_;
  std::unordered_map<std::uint32_t, rt::VThread*> threads_by_id_;
  std::unordered_map<rt::VThread*, RevocableMonitor*> waits_for_;
  // Builds the RevocableMonitors monitor_of inflates into the MonitorTable;
  // the engine is the slots' owner tag, so teardown can release exactly its
  // own slots (untagged or other engines' slots are untouched).
  monitor::MonitorTable::Factory monitor_factory_;
  std::vector<RevocableMonitor*> monitors_;       // registered, for sweeps
  std::vector<std::unique_ptr<RevocableMonitor>> owned_monitors_;
  std::uint64_t next_frame_id_ = 1;
  analysis::Analyzer* analyzer_ = nullptr;  // installed by this engine
  bool observing_ = false;  // this engine installed the obs recorder
  bool multi_shard_ = false;  // entered the MonitorTable's multi-shard mode
  // The MonitorTable's stats when this engine was built or last published.
  monitor::MonitorTableStats montable_published_ =
      monitor::MonitorTable::global().stats();
  std::vector<EngineObserver*> observers_;  // publish's subscribers

  friend class RevocableMonitor;
};

// RAII marker for irrevocable actions inside synchronized sections.
class NativeCallScope {
 public:
  explicit NativeCallScope(Engine& e) { e.pin_current_frames(PinReason::kNativeCall); }
};

}  // namespace rvk::core
