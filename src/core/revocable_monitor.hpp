// The revocable monitor: MonitorBase mechanics plus the preemption protocol.
//
// Paper §4: "A thread acquiring a monitor deposits its priority in the
// header of the monitor object. Before another thread can attempt
// acquisition of the same monitor, it checks whether its own priority is
// higher than the priority of the thread currently executing within the
// synchronized section. If it is, the scheduler initiates a context-switch
// and triggers rollback of the low priority thread at the next yield point."
//
// The acquisition loop is MonitorBase::enter(), shared by acquire() and the
// abortable try_enter().  This class fills in its hooks: on_block implements
// the contending side of the protocol by delegating the decision to the
// engine (priority-inversion detection, deadlock detection, revocation
// posting), and on_revocation_pending the victim side's delivery
// obligations — every retry, including a timed-out park's exit, re-checks
// for a pending revocation targeting one of the *caller's* enclosing frames,
// repairing the monitor's handoff reservation before unwinding.
// Cancellation loses to revocation when both are pending: rollback of
// enclosing frames is a correctness obligation, and the persistent cancel
// flag fails the retry instead.
#pragma once

#include <string>

#include "monitor/monitor.hpp"

namespace rvk::core {

class Engine;

// Not final: the exploration harness derives fault-injection variants (an
// always-reserving release) to prove its invariant checks catch protocol
// violations.  Production code should not subclass.
class RevocableMonitor : public monitor::MonitorBase {
 public:
  // Monitors register with their engine for background inversion sweeps; the
  // engine must outlive the monitor.
  RevocableMonitor(std::string name, Engine& engine);
  ~RevocableMonitor() override;

  Engine& engine() const { return engine_; }

  // Thread the monitor is biased towards (DESIGN.md §11): the last owner,
  // expected to re-acquire without contention.  Comparison-only — never
  // dereferenced — so a stale pointer to a finished thread is harmless (a
  // recycled address hitting the bias is semantically identical to an
  // ordinary acquire of a free, unreserved monitor).
  rt::VThread* biased_to() const { return bias_; }

  // ---- Engine-only biased fast path (DESIGN.md §11) ----
  // Engine::enter_frame's lazy fast path: succeeds only in the exact
  // situation where enter()'s loop would take the monitor on its first
  // try_take with no bookkeeping — biased to t, free, unreserved.  Deposits
  // t's priority per §4 so background inversion sweeps see the same header
  // an ordinary acquire would leave.
  RVK_NO_YIELD bool bias_fast_acquire(rt::VThread* t) {
    if (bias_ != t || owner_ != nullptr || reserved_ != nullptr) return false;
    ++stats_.acquires;
    ++stats_.bias_grants;
    owner_ = t;
    recursion_ = 1;
    owner_priority_ = t->priority();
    return true;
  }

  // Engine::commit_frame's lazy release, for a frame that never reached a
  // yield point: green-thread atomicity guarantees no waiter arrived (the
  // entry queue is untouched since the grant), so there is nothing to hand
  // off.  The bias keeps pointing at t — that is the point.
  RVK_NO_YIELD void bias_fast_release([[maybe_unused]] rt::VThread* t) {
    RVK_DCHECK(owner_ == t && recursion_ == 1);
    RVK_DCHECK(entry_queue_.empty());
    owner_ = nullptr;
    recursion_ = 0;
    owner_priority_ = 0;
  }

 protected:
  void on_enter(rt::VThread* t, bool abortable) override;  // bias bookkeeping
  // Serves the revocation (may throw RollbackException).
  RVK_MAY_YIELD void on_revocation_pending(rt::VThread* t) override;
  // Inversion/deadlock detection, then the waits-for edge.
  void on_block(rt::VThread* t) override;
  void on_wake(rt::VThread* t) override;
  void on_acquired(rt::VThread* t) override;
  void on_released(rt::VThread* t) override;
  void on_wait_release(rt::VThread* t) override;  // wait() pins frames (§2.2)

 private:
  Engine& engine_;
  rt::VThread* bias_ = nullptr;  // comparison-only; see biased_to()
  bool bias_enabled_ = false;    // EngineConfig::bias, latched at construction
};

}  // namespace rvk::core
