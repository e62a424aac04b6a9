#include "monitor/monitor.hpp"

#include "obs/recorder.hpp"

namespace rvk::monitor {

namespace {
// A monitor's identity in obs events (EventKind: a = monitor identity).
std::uint64_t obs_id(const MonitorBase* m) {
  return reinterpret_cast<std::uintptr_t>(m);
}
}  // namespace

void MonitorBase::acquire() { (void)enter(std::nullopt); }

bool MonitorBase::try_enter(std::uint64_t ticks) { return enter(ticks); }

bool MonitorBase::enter(const std::optional<std::uint64_t>& ticks) {
  rt::Scheduler* sched = rt::current_scheduler();
  RVK_CHECK_MSG(sched != nullptr, "monitor used outside a running scheduler");
  rt::VThread* t = sched->current_thread();
  ++stats_.acquires;
  if (owner_ == t) {
    // Recursive re-entry by the owner is unconditional (DESIGN.md §14): no
    // deadline, no cancellation check — the thread already holds the
    // monitor, so failing here could never make it available to anyone.
    ++recursion_;
    return true;
  }
  const std::uint64_t start = sched->now();
  const std::uint64_t deadline = start + ticks.value_or(0);
  on_enter(t, ticks.has_value());
  // Only a deadline makes the wait abortable: a blocking entry arms no
  // timer and never observes cancel_requested (Java fidelity, see cancel()).
  std::optional<AbortableScope> abortable;
  if (ticks) abortable.emplace(t);
  // In transit for the whole loop (and through abandon): between a failed
  // try_take and the post-wakeup retry the thread may sit in no queue while
  // holding `this`, and a contender that gives up must stay visible until
  // its bookkeeping is unwound — the guard keeps the slot quiescence
  // predicate honest (DESIGN.md §13).  RAII, so a RollbackException
  // unwinding out of on_revocation_pending/on_block drops it too.
  TransitGuard transit(*this);
  bool contended = false;
  for (;;) {
    // Revocation outranks cancellation: rollback of enclosing frames is a
    // correctness obligation, so it is served first and the persistent
    // cancel flag fails the post-rollback retry instead.
    if (t->revoke_requested) [[unlikely]] on_revocation_pending(t);
    // Cancellation outranks acquisition: a pre-cancelled abortable entry
    // fails before its first attempt (the engine's bias fast path is gated
    // the same way), making cancel() a barrier against future abortable
    // acquisitions until cleared.
    if (ticks && t->cancel_requested) {
      abandon_acquire(t, /*cancelled=*/true, sched->now() - start);
      return false;
    }
    if (try_take(t)) break;
    if (ticks && sched->now() >= deadline) {
      abandon_acquire(t, /*cancelled=*/false, sched->now() - start);
      return false;
    }
    if (!contended) {
      contended = true;
      ++stats_.contended;
      // blocking_priority() is only evaluated when a recorder is live
      // (zero-cost-when-off contract, DESIGN.md §10).
      if (obs::recording()) [[unlikely]] {
        obs::on_event(obs::EventKind::kMonitorContend, t, obs_id(this),
                      static_cast<std::uint64_t>(blocking_priority(t)));
      }
    }
    on_block(t);
    if (!ticks) {
      sched->block_current_on(entry_queue_);
      on_wake(t);
      continue;
    }
    // No yield point between the cancel check at the loop top and this park
    // (green-thread atomicity): a cancel request cannot arrive unobserved in
    // between, which is what makes "an abortable waiter is never parked or
    // reserved with cancel_requested set" hold at every step boundary — the
    // property the exploration invariant checks.
    const bool woken =
        sched->block_current_on_for(entry_queue_, deadline - sched->now());
    on_wake(t);
    if (!woken) {
      // A timeout can never race a reservation: a reserving handoff's
      // make_runnable disarmed our timer, and a fired timer removed us from
      // the entry queue so no later handoff can pick us (DESIGN.md §14).
      RVK_DCHECK(reserved_ != t);
      // Every wakeup — the timeout exit included — serves a pending
      // revocation before anything else.
      if (t->revoke_requested) [[unlikely]] on_revocation_pending(t);
      abandon_acquire(t, /*cancelled=*/false, sched->now() - start);
      return false;
    }
  }
  obs::on_event(obs::EventKind::kMonitorAcquire, t, obs_id(this),
                contended ? 1 : 0);
  on_acquired(t);
  return true;
}

int MonitorBase::blocking_priority(const rt::VThread* t) const {
  // The priority standing between `t` and the monitor: the deposited owner
  // priority (§4 — the value the revocation engine compares against), or a
  // blocking reservation's priority, or — neither, a transient state — the
  // waiter's own (no inversion can be read from that).
  if (owner_ != nullptr) return owner_priority_;
  if (reserved_ != nullptr) return reserved_->priority();
  return t->priority();
}

bool MonitorBase::try_take(rt::VThread* t) {
  if (owner_ != nullptr) return false;
  if (reserved_ != nullptr && reserved_ != t) {
    if (t->priority() <= reserved_->priority()) return false;
    ++stats_.steals;  // strictly higher priority displaces the reservation
    obs::on_event(obs::EventKind::kMonitorBarge, t, obs_id(this));
  }
  set_reserved(nullptr);
  owner_ = t;
  recursion_ = 1;
  owner_priority_ = t->priority();
  return true;
}

void MonitorBase::set_reserved(rt::VThread* w) {
  if (reserved_ != nullptr) reserved_->reserved_in = nullptr;
  // A thread is reserved by at most one monitor at a time: it can only be
  // granted while parked in THIS entry queue, and it cannot park here while
  // some other monitor still reserves for it (it would take that one first).
  RVK_DCHECK(w == nullptr || w->reserved_in == nullptr);
  reserved_ = w;
  if (w != nullptr) w->reserved_in = this;
}

void MonitorBase::release() { do_release(/*reserve=*/false); }

void MonitorBase::release_reserving() { do_release(/*reserve=*/true); }

void MonitorBase::do_release(bool reserve) {
  rt::VThread* t = rt::current_vthread();
  RVK_CHECK_MSG(owner_ == t, "release by non-owner");
  if (--recursion_ > 0) return;
  // Clearing the owner, the subclass notification and the handoff must be
  // one atomic step — a switch point in between would expose a monitor
  // with no owner but a half-done wakeup.  The guard is free unless the
  // revocation-safety analyzer enabled region marking.
  rt::ForbiddenRegionGuard region(t);
  owner_ = nullptr;
  owner_priority_ = 0;
  on_released(t);
  handoff(reserve);
  // Count only release-time reservation *grants*, not the acquire-path
  // surrender that passes an existing reservation along: the exploration
  // harness checks grants never exceed rollback releases (CLAUDE.md: only
  // rollback reserves; ordinary release must allow barging, §4).
  if (reserve && reserved_ != nullptr) ++stats_.reservations;
  // Still inside the forbidden region: the recorder's one handler is
  // forbidden-safe (pre-reserved ring slot, no allocation).
  obs::on_event(obs::EventKind::kMonitorRelease, t, obs_id(this),
                reserve && reserved_ != nullptr ? 1 : 0);
}

void MonitorBase::handoff(bool reserve) {
  rt::Scheduler* sched = rt::current_scheduler();
  if (rt::VThread* w = entry_queue_.pop_best()) {
    if (reserve) set_reserved(w);
    sched->make_runnable(w);
    ++stats_.handoffs;
  }
}

void MonitorBase::abandon_acquire(rt::VThread* t, bool cancelled,
                                  std::uint64_t waited_ticks) {
  // One indivisible step, like release: between returning a reservation and
  // re-handing the monitor there must be no switch point, or an arrival
  // would see a barging window §5.6 does not allow.
  rt::ForbiddenRegionGuard region(t);
  if (reserved_ == t) {
    // The grant raced the give-up: pass it to the next-best waiter so the
    // rollback's reservation intent survives the cancellation.
    set_reserved(nullptr);
    handoff(/*reserve=*/true);
  } else if (owner_ == nullptr && reserved_ == nullptr &&
             !entry_queue_.empty()) {
    // The abandoning contender may have consumed a release-time wakeup; re-
    // forward it so that handoff is never lost.  At worst this wakes a
    // waiter spuriously, which monitor semantics permit (§2.2).
    handoff(/*reserve=*/false);
  }
  ++stats_.aborts;
  if (cancelled) {
    ++stats_.cancels;
  } else {
    ++stats_.timeouts;
  }
  obs::on_event(obs::EventKind::kMonitorAbandon, t, obs_id(this),
                cancelled ? 1 : 0, waited_ticks);
}

void MonitorBase::cancel(rt::VThread* t) {
  rt::Scheduler* sched = rt::current_scheduler();
  RVK_CHECK_MSG(sched != nullptr, "cancel outside a running scheduler");
  // The surrender, the flag post and the interrupt are one atomic step: a
  // concurrently scheduled thread sees either the old reservation or the
  // completed re-handoff plus the flag — never a half-cancelled waiter.
  rt::ForbiddenRegionGuard region(sched->current_thread());
  if (t->reserved_in != nullptr) {
    // §14 fairness: cancellation wins over the grant.  The reservation goes
    // back to the monitor and on to its next-best waiter before the flag
    // becomes visible, so a reservation is never left pointing at a thread
    // that will refuse it.
    MonitorBase* m = t->reserved_in;
    RVK_DCHECK(m->reserved_ == t);
    m->set_reserved(nullptr);
    m->handoff(/*reserve=*/true);
  }
  t->cancel_requested = true;
  sched->interrupt(t);
}

void MonitorBase::wait() {
  rt::Scheduler* sched = rt::current_scheduler();
  rt::VThread* t = sched->current_thread();
  RVK_CHECK_MSG(owner_ == t, "wait() by non-owner");
  ++stats_.waits;
  // In transit for the whole window: a notified waiter is runnable but in
  // NO queue until its reacquire blocks — without the guard that window
  // would read as quiescent and a dying object could free the monitor under
  // it.
  TransitGuard transit(*this);
  on_wait_release(t);
  const int saved = recursion_;
  recursion_ = 1;  // release() drops the monitor fully in one step
  release();
  sched->block_current_on(wait_set_);
  acquire();
  recursion_ = saved;
}

bool MonitorBase::wait_for(std::uint64_t ticks) {
  rt::Scheduler* sched = rt::current_scheduler();
  rt::VThread* t = sched->current_thread();
  RVK_CHECK_MSG(owner_ == t, "wait_for() by non-owner");
  ++stats_.waits;
  TransitGuard transit(*this);  // see wait()
  on_wait_release(t);
  const int saved = recursion_;
  recursion_ = 1;
  release();
  const bool notified = sched->block_current_on_for(wait_set_, ticks);
  acquire();
  recursion_ = saved;
  return notified;
}

void MonitorBase::notify_one() {
  rt::Scheduler* sched = rt::current_scheduler();
  RVK_CHECK_MSG(owner_ == sched->current_thread(), "notify by non-owner");
  ++stats_.notifies;
  if (rt::VThread* w = wait_set_.pop_best()) sched->make_runnable(w);
}

void MonitorBase::notify_all() {
  rt::Scheduler* sched = rt::current_scheduler();
  RVK_CHECK_MSG(owner_ == sched->current_thread(), "notifyAll by non-owner");
  ++stats_.notifies;
  sched->wake_all(wait_set_);
}

void MonitorBase::on_enter(rt::VThread*, bool) {}
void MonitorBase::on_revocation_pending(rt::VThread*) {}
void MonitorBase::on_block(rt::VThread*) {}
void MonitorBase::on_wake(rt::VThread*) {}
void MonitorBase::on_acquired(rt::VThread*) {}
void MonitorBase::on_released(rt::VThread*) {}
void MonitorBase::on_wait_release(rt::VThread*) {}

}  // namespace rvk::monitor
