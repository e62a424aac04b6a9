// Priority inheritance protocol (Sha, Rajkumar & Lehoczky 1990) — one of the
// two classical priority-inversion remedies the paper positions itself
// against (§1, §5): "priority inheritance will raise the priority of a
// thread only when holding a lock causes it to block a higher priority
// thread … the low priority thread inherits the priority of the higher
// priority thread it is blocking."
//
// Implemented faithfully, including the transitive boost the paper calls out
// as a drawback ("Because it is a transitive operation, it may lead to
// unpredictable performance degradation when nested regions are protected by
// priority inheritance locks").  Used by the baseline ablation benchmarks
// under the strict-priority scheduler mode, where inherited priorities
// actually change who runs.
//
// An InheritanceDomain owns the per-thread protocol state (base priority,
// held monitors, current blocker); all monitors participating in one
// inheritance relationship must share a domain.  A thread has an entry only
// while it holds or waits on one of the domain's monitors.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "monitor/monitor.hpp"

namespace rvk::monitor {

class PriorityInheritanceMonitor;

class InheritanceDomain {
 public:
  InheritanceDomain() = default;
  InheritanceDomain(const InheritanceDomain&) = delete;
  InheritanceDomain& operator=(const InheritanceDomain&) = delete;

  // Captures `t`'s current priority as its base.  Implicit on first contact;
  // call explicitly if the thread's priority may already be boosted.
  void register_thread(rt::VThread* t);

  // `t`'s base priority: captured while it has an entry, else its current
  // priority (a thread holding none of the domain's monitors is unboosted).
  int base_priority(rt::VThread* t) const;

 private:
  friend class PriorityInheritanceMonitor;

  struct ThreadState {
    int base_priority = rt::kNormPriority;
    std::vector<PriorityInheritanceMonitor*> held;
    PriorityInheritanceMonitor* blocked_on = nullptr;
  };

  ThreadState& state_of(rt::VThread* t);

  // Find-only state_of for the release path: on_released runs inside the
  // monitor's forbidden region (no allocation), and the releasing thread's
  // state must exist — on_acquired created it.
  ThreadState& held_state_of(rt::VThread* t);

  // Walks the blocking chain from the owner of `m`, raising priorities to at
  // least `prio` (the transitive inheritance step).
  void boost_chain(PriorityInheritanceMonitor* m, int prio);

  // Recomputes `t`'s priority from its state `s`: its base, raised by the
  // best waiter on any monitor it still holds.  Returns whether it changed.
  // Find-only and allocation-free (release and abandon paths).
  bool recompute(rt::VThread* t, const ThreadState& s);

  // A waiter gave up its entry to `m`: the boost it gave `m`'s owner, and
  // on along the owner's blocked_on chain, is withdrawn (each holder is
  // recomputed until one is unchanged).  Runs on the abandon path.
  void unboost_chain(PriorityInheritanceMonitor* m);

  // Drops `t`'s entry once it holds nothing and waits on nothing.  Only
  // frees, so it is legal on the release path.
  void forget_if_idle(rt::VThread* t);

  // Keyed by id, not by block: a recycled block hosts a new thread with
  // its own base priority.
  std::unordered_map<rt::ThreadId, ThreadState> threads_;
};

class PriorityInheritanceMonitor final : public MonitorBase {
 public:
  PriorityInheritanceMonitor(std::string name, InheritanceDomain& domain)
      : MonitorBase(std::move(name)), domain_(domain) {}

  // Number of times this monitor's contention boosted an owner.
  std::uint64_t boosts() const { return boosts_; }

 protected:
  void on_block(rt::VThread* t) override;
  void on_wake(rt::VThread* t) override;
  void on_acquired(rt::VThread* t) override;
  void on_released(rt::VThread* t) override;
  void on_abandon(rt::VThread* t) override;

 private:
  friend class InheritanceDomain;
  InheritanceDomain& domain_;
  std::uint64_t boosts_ = 0;
};

}  // namespace rvk::monitor
