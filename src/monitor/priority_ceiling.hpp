// Priority ceiling emulation — the second classical remedy (§1, §5): "The
// priority ceiling emulation technique raises the priority of any locking
// thread to the highest priority of any thread that ever uses that lock
// (ie, its priority ceiling). This requires the programmer to supply the
// priority ceiling for each lock" — the non-transparency the paper's
// approach removes.
//
// On acquisition the owner's priority is immediately raised to the ceiling;
// on release it is recomputed from its base and the ceilings of monitors it
// still holds.  A CeilingDomain owns the per-thread state, mirroring
// InheritanceDomain.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "monitor/monitor.hpp"

namespace rvk::monitor {

class PriorityCeilingMonitor;

class CeilingDomain {
 public:
  CeilingDomain() = default;
  CeilingDomain(const CeilingDomain&) = delete;
  CeilingDomain& operator=(const CeilingDomain&) = delete;

  void register_thread(rt::VThread* t);
  int base_priority(rt::VThread* t);

 private:
  friend class PriorityCeilingMonitor;

  struct ThreadState {
    int base_priority = rt::kNormPriority;
    std::vector<PriorityCeilingMonitor*> held;
  };

  ThreadState& state_of(rt::VThread* t);

  // Find-only state_of for the release path: on_released runs inside the
  // monitor's forbidden region (no allocation), and the releasing thread's
  // state must exist — on_acquired created it.
  ThreadState& held_state_of(rt::VThread* t);

  void recompute(rt::VThread* t);

  // Keyed by id, not by block: a recycled block hosts a new thread with
  // its own base priority.
  std::unordered_map<rt::ThreadId, ThreadState> threads_;
};

class PriorityCeilingMonitor final : public MonitorBase {
 public:
  // `ceiling` is the programmer-supplied highest priority of any thread that
  // ever uses this lock.
  PriorityCeilingMonitor(std::string name, int ceiling, CeilingDomain& domain)
      : MonitorBase(std::move(name)), ceiling_(ceiling), domain_(domain) {
    RVK_CHECK(ceiling >= rt::kMinPriority && ceiling <= rt::kMaxPriority);
  }

  int ceiling() const { return ceiling_; }

 protected:
  void on_acquired(rt::VThread* t) override;
  void on_released(rt::VThread* t) override;

 private:
  int ceiling_;
  CeilingDomain& domain_;
};

}  // namespace rvk::monitor
