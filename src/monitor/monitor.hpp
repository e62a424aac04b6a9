// Monitors (Java-style: mutual exclusion + wait sets), built on the green-
// thread scheduler.
//
// MonitorBase provides the mechanics every variant shares:
//  * recursive ownership ("a thread holding a monitor may enter another
//    synchronized section guarded by the same … monitor", §2);
//  * a deposited owner priority in the monitor header ("a thread acquiring a
//    monitor deposits its priority in the header of the monitor object",
//    §4) — the revocation engine compares against the *deposited* value, so
//    later inheritance boosts do not mask an inversion;
//  * prioritized entry queues (§4: "When a thread releases a monitor,
//    another thread is scheduled from the queue" in priority order).  An
//    ordinary release wakes the best waiter but leaves the monitor free
//    until that waiter runs — an arriving thread may *barge* in first,
//    exactly like Jikes RVM thin locks.  Only a release performed by a
//    rollback reserves the monitor for the best waiter (§4: "After the
//    low-priority thread rolls back its changes and releases the monitor,
//    the high-priority thread acquires control of the synchronized
//    section") — otherwise the revoked victim, which is already running,
//    would simply barge back in and undo the revocation's point.  A
//    reservation can still be displaced by a strictly higher-priority
//    arrival;
//  * wait/notify/notifyAll with Java semantics (full release, FIFO-within-
//    priority wait sets, spurious wakeups permitted — the paper relies on
//    that permission to make notify revocable, §2.2).
//
// Concrete variants:
//  * BlockingMonitor   — the paper's "unmodified VM" reference behaviour;
//  * PriorityInheritanceMonitor / PriorityCeilingMonitor (own headers) —
//    the classical avoidance protocols, for the baseline ablations;
//  * core::RevocableMonitor — the paper's contribution, layered on the same
//    base in src/core/.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "rt/scheduler.hpp"

namespace rvk::monitor {

struct MonitorStats {
  std::uint64_t acquires = 0;    // acquire() calls (including recursive)
  std::uint64_t contended = 0;   // acquires that had to block at least once
  std::uint64_t handoffs = 0;    // release-time wakeups of the best waiter
  std::uint64_t reservations = 0;  // releases that granted a reservation
  std::uint64_t steals = 0;      // reservations displaced by higher priority
  std::uint64_t waits = 0;
  std::uint64_t notifies = 0;
  // Abortable-acquisition counters (DESIGN.md §14).
  std::uint64_t aborts = 0;    // try_enter gave up (timeouts + cancels)
  std::uint64_t timeouts = 0;  // ... because the deadline expired
  std::uint64_t cancels = 0;   // ... because cancellation was requested
  // Biased-entry counters (DESIGN.md §11; RevocableMonitor only — always
  // zero for the baseline monitors).
  std::uint64_t bias_grants = 0;       // acquires served by the bias predicate
  std::uint64_t bias_revocations = 0;  // biases cleared by a second thread
};

class MonitorBase {
 public:
  explicit MonitorBase(std::string name) : name_(std::move(name)) {}
  virtual ~MonitorBase() = default;

  MonitorBase(const MonitorBase&) = delete;
  MonitorBase& operator=(const MonitorBase&) = delete;

  // Acquires the monitor, blocking as needed.  Recursive acquisition by the
  // owner succeeds immediately.  enter() with no deadline.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC virtual void acquire();

  // Abortable acquisition (DESIGN.md §14; CQS-style tryLock(timeout)).
  // Attempts to acquire within `ticks` virtual ticks from now; returns true
  // on acquisition, false if the deadline expired or cancellation was
  // requested (MonitorBase::cancel) before the monitor was taken.  `ticks`
  // of 0 is a pure tryLock: one attempt, never blocks.  Recursive
  // acquisition by the owner always succeeds immediately (no timer).
  // Timeouts ride the scheduler's deadline min-heap; a pending cancellation
  // fails the call before any acquisition attempt.  On a false return the
  // thread holds nothing: a reservation granted to it was already returned
  // (handed off to the next-best waiter) and any wakeup it may have
  // consumed is re-forwarded, so no waiter is lost and no reservation
  // leaks.  enter() with a deadline.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC virtual bool try_enter(
      std::uint64_t ticks);

  // Requests cancellation of `t`'s abortable waits.  One atomic step (green-
  // thread atomicity, enforced as a forbidden region): if a monitor is
  // currently reserved for `t`, the reservation is surrendered and re-handed
  // to that monitor's next-best waiter — cancellation wins over the grant —
  // then the flag is posted and `t` is interrupted out of any park.  A
  // thread inside plain acquire()/wait() is woken spuriously but does not
  // abort (Java fidelity: only try_enter observes the flag).  Idempotent;
  // callable from any thread, including `t` itself.
  // NO_YIELD: the surrender/re-handoff must be invisible as an intermediate
  // state — a concurrently-scheduled thread must see either the old
  // reservation or the completed re-handoff, never a reservation-less gap.
  RVK_NO_YIELD static void cancel(rt::VThread* t);

  // Clears a previously-posted cancellation request so `t`'s later
  // abortable waits proceed normally.
  static void clear_cancel(rt::VThread* t) { t->cancel_requested = false; }

  // Releases one level of ownership; frees the monitor (waking the best
  // waiter) when the recursion count reaches zero.  Arrivals may barge in
  // before the woken waiter runs.
  // NO_YIELD: the entire release sequence runs inside a forbidden region —
  // §3.1.2 requires undo-then-release to be one indivisible step.
  RVK_NO_YIELD virtual void release();

  // Like release(), but reserves the monitor for the best waiter: only a
  // strictly higher-priority arrival may take it first.  Used by rollback
  // unwinding so the preempting thread — not the revoked victim retrying —
  // enters next.
  RVK_NO_YIELD void release_reserving();

  // Java Object.wait(): fully releases the monitor (all recursion levels),
  // parks on the wait set until notified (spurious wakeups permitted), then
  // reacquires to the saved recursion depth.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC void wait();

  // Java Object.wait(timeout): as wait(), but gives up after `ticks`
  // virtual ticks.  Returns true if notified, false on timeout; the monitor
  // is reacquired either way.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC bool wait_for(
      std::uint64_t ticks);

  // Java Object.notify()/notifyAll(): moves waiter(s) to contend for the
  // monitor.  Caller must hold the monitor.
  void notify_one();
  void notify_all();

  // ---- Introspection ----
  const std::string& name() const { return name_; }
  rt::VThread* owner() const { return owner_; }
  int recursion() const { return recursion_; }
  // Priority the owner deposited at acquisition (0 when free).
  int deposited_priority() const { return owner_priority_; }
  bool held_by(const rt::VThread* t) const { return owner_ == t; }
  bool held_by_current() const { return owner_ == rt::current_vthread(); }
  // Waiter the monitor is currently reserved for (nullptr when none).  Only
  // rollback releases reserve (CLAUDE.md invariant); the exploration
  // harness checks per-step that ordinary releases left this clear.
  rt::VThread* reserved() const { return reserved_; }
  const MonitorStats& stats() const { return stats_; }
  const rt::WaitQueue& entry_queue() const { return entry_queue_; }
  const rt::WaitQueue& wait_set() const { return wait_set_; }
  // Threads currently inside enter()'s contended loop or a wait() window.
  // A woken waiter that has not yet been rescheduled sits in NO queue while
  // still holding a reference to this monitor — this counter is what lets
  // the quiescence predicate (MonitorTable::quiescent, DESIGN.md §13) see
  // it before a dying object's slot is destroyed.
  int in_transit() const { return transit_; }

 protected:
  // The one acquisition protocol behind acquire() and try_enter() (§4;
  // DESIGN.md §14).  With `ticks`, the entry is abortable: it gives up once
  // `ticks` virtual ticks have passed or cancellation is requested, parking
  // with a timer.  Without, it blocks until acquired: no timer, no
  // AbortableScope, no cancellation check.  Returns true iff acquired.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC bool enter(
      const std::optional<std::uint64_t>& ticks);

  // Marks the enclosing scope as in-transit through this monitor (bumps
  // transit_, RAII-decrements on every exit path — a RollbackException
  // thrown by a subclass hook unwinds through it).  Scopes: enter()'s loop
  // and the whole of wait()/wait_for().
  class TransitGuard {
   public:
    explicit TransitGuard(MonitorBase& m) : m_(m) { ++m_.transit_; }
    ~TransitGuard() { --m_.transit_; }
    TransitGuard(const TransitGuard&) = delete;
    TransitGuard& operator=(const TransitGuard&) = delete;

   private:
    MonitorBase& m_;
  };

  // Attempts to take the free monitor, honouring reservations.  Deposits the
  // taker's priority on success.
  bool try_take(rt::VThread* t);

  // Sole writer of reserved_: keeps the VThread::reserved_in back-link (the
  // O(1) map cancellation uses to find the reserving monitor) in lockstep.
  // Every reservation grant, consumption, steal and surrender goes through
  // here.
  RVK_NO_YIELD void set_reserved(rt::VThread* w);

  // Unwinds a contender that gives up (timeout or cancellation) without
  // acquiring.  Returns a reservation held for `t` (re-handing the monitor
  // to the next-best waiter) and re-forwards a wakeup `t` may have consumed
  // while the monitor is free, so abandoning never strands a waiter.  Bumps
  // the abort counters; `waited_ticks` feeds the obs abandon-latency
  // histogram.
  // NO_YIELD: like release, the give-up must be one indivisible step — a
  // half-returned reservation would be a barging window §5.6 does not allow.
  RVK_NO_YIELD void abandon_acquire(rt::VThread* t, bool cancelled,
                                    std::uint64_t waited_ticks);

  // Scopes VThread::abortable_wait over an abortable enter() (RAII so a
  // RollbackException unwinding out of a subclass hook clears it).  The flag
  // is what narrows the "never cancelled AND reserved" invariant to
  // abortable waiters.
  class AbortableScope {
   public:
    explicit AbortableScope(rt::VThread* t) : t_(t) {
      t_->abortable_wait = true;
    }
    ~AbortableScope() { t_->abortable_wait = false; }
    AbortableScope(const AbortableScope&) = delete;
    AbortableScope& operator=(const AbortableScope&) = delete;

   private:
    rt::VThread* t_;
  };

  // Pops the best entry-queue waiter and makes it runnable; if `reserve`,
  // additionally reserves the monitor for it.  Called with the monitor free.
  RVK_NO_YIELD void handoff(bool reserve);

  // Shared body of release()/release_reserving().
  RVK_NO_YIELD void do_release(bool reserve);

  // Priority standing between waiter `t` and this monitor (deposited owner
  // priority, else a blocking reservation's, else t's own) — what the obs
  // layer compares against to spot an inversion forming.
  int blocking_priority(const rt::VThread* t) const;

  // Subclass hooks (priority protocols, revocation engine).
  virtual void on_enter(rt::VThread* t, bool abortable);  // before 1st attempt
  // t->revoke_requested seen at the loop top or after a timed-out park; the
  // revocation engine serves it here (may throw RollbackException).
  virtual void on_revocation_pending(rt::VThread* t);
  virtual void on_block(rt::VThread* t);      // about to park on entry queue
  virtual void on_wake(rt::VThread* t);       // returned from parking
  virtual void on_acquired(rt::VThread* t);   // took ownership (non-recursive)
  virtual void on_released(rt::VThread* t);   // dropped ownership fully
  // Gave up an abortable entry (timeout or cancel); runs inside
  // abandon_acquire's forbidden region, so it must not allocate.
  virtual void on_abandon(rt::VThread* t);
  virtual void on_wait_release(rt::VThread* t);  // wait() releasing

  std::string name_;
  rt::VThread* owner_ = nullptr;
  rt::VThread* reserved_ = nullptr;  // woken waiter the monitor is held for
  int recursion_ = 0;
  int owner_priority_ = 0;
  int transit_ = 0;  // see in_transit()
  rt::WaitQueue entry_queue_;
  rt::WaitQueue wait_set_;
  MonitorStats stats_;
};

// The paper's reference: a plain blocking monitor with prioritized queues
// and no remedy for priority inversion ("when a high-priority thread wants
// to acquire a lock already held by a low-priority thread, it waits until
// the low-priority thread exits the synchronized section", §4.1).
class BlockingMonitor final : public MonitorBase {
 public:
  explicit BlockingMonitor(std::string name) : MonitorBase(std::move(name)) {}
};

// Cancellation handle for one thread's abortable waits (DESIGN.md §14).
// A thin, copyable wrapper over MonitorBase::cancel: request() aborts the
// target's in-progress and future try_enter calls until clear().  The
// token does not own the thread; it must not outlive the scheduler run.
class CancelToken {
 public:
  explicit CancelToken(rt::VThread* t) : t_(t) {}

  // Posts the cancellation (surrendering any reservation held for the
  // target and interrupting it out of a park).  Safe to call repeatedly.
  RVK_NO_YIELD void request() const { MonitorBase::cancel(t_); }
  bool requested() const { return t_->cancel_requested; }
  void clear() const { MonitorBase::clear_cancel(t_); }
  rt::VThread* target() const { return t_; }

 private:
  rt::VThread* t_;
};

}  // namespace rvk::monitor
