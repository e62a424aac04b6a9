#include "core/revocable_monitor.hpp"

#include <algorithm>

#include "core/engine.hpp"
#include "obs/recorder.hpp"

namespace rvk::core {

RevocableMonitor::RevocableMonitor(std::string name, Engine& engine)
    : monitor::MonitorBase(std::move(name)), engine_(engine) {
  bias_enabled_ = engine.config().bias;  // RVK_BIAS resolved in Engine's ctor
  engine_.monitors_.push_back(this);
}

RevocableMonitor::~RevocableMonitor() {
  auto& v = engine_.monitors_;
  v.erase(std::remove(v.begin(), v.end(), this), v.end());
}

void RevocableMonitor::on_enter(rt::VThread* t, bool abortable) {
  // Biased entry (DESIGN.md §11).  A second thread arriving revokes the
  // bias; the biased thread finding the monitor free re-earns its grant.
  // The grant predicate is the exact condition under which enter() takes
  // the monitor on its first try_take — and matches the engine's gate on
  // bias_fast_acquire, where a pending cancellation also refuses an
  // abortable entry — so bias counters are identical whether the engine's
  // lazy fast path is active or disabled (analyzer/explorer/recorder runs),
  // and across blocking and abortable entry.
  if (bias_ == nullptr) [[unlikely]] return;
  if (bias_ != t) {
    bias_ = nullptr;
    ++stats_.bias_revocations;
  } else if (owner_ == nullptr && reserved_ == nullptr &&
             !t->revoke_requested && !(abortable && t->cancel_requested)) {
    ++stats_.bias_grants;
  }
}

void RevocableMonitor::on_revocation_pending(rt::VThread* t) {
  // We may hold this monitor's rollback reservation; surrender it before
  // unwinding or the monitor would stay reserved for a thread that will not
  // come back for it.  Pass the reservation on to the next waiter.
  if (reserved_ == t) {
    // Surrendering the reservation is a release-path step: it must reach
    // check_revocation() without an intervening switch point.
    rt::ForbiddenRegionGuard region(t);
    set_reserved(nullptr);
    handoff(/*reserve=*/true);
  }
  rt::current_scheduler()->check_revocation();  // throws unless invalidated
}

void RevocableMonitor::on_block(rt::VThread* t) {
  // §4: the contending side — inversion/deadlock detection; may post a
  // revocation against the owner, or against *us* (deadlock victim).  An
  // abortable waiter drives it exactly like a blocking one.
  engine_.on_contended_acquire(t, *this);
  if (t->revoke_requested) [[unlikely]] on_revocation_pending(t);
  engine_.on_blocked(t, *this);
}

void RevocableMonitor::on_wake(rt::VThread* t) {
  engine_.on_unblocked(t, *this);
}

void RevocableMonitor::on_acquired(rt::VThread* t) {
  // Every non-recursive acquisition (including post-contention wakeups)
  // re-establishes the bias towards the new owner.
  if (bias_enabled_) bias_ = t;
}

void RevocableMonitor::on_released(rt::VThread*) {}

void RevocableMonitor::on_wait_release(rt::VThread* t) {
  engine_.on_wait_pin(t);
}

}  // namespace rvk::core
