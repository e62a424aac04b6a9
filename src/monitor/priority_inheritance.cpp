#include "monitor/priority_inheritance.hpp"

#include <algorithm>

namespace rvk::monitor {

void InheritanceDomain::register_thread(rt::VThread* t) {
  ThreadState& s = state_of(t);
  s.base_priority = t->priority();
}

int InheritanceDomain::base_priority(rt::VThread* t) const {
  auto it = threads_.find(t->id());
  return it != threads_.end() ? it->second.base_priority : t->priority();
}

InheritanceDomain::ThreadState& InheritanceDomain::state_of(rt::VThread* t) {
  auto [it, inserted] = threads_.try_emplace(t->id());
  if (inserted) it->second.base_priority = t->priority();
  return it->second;
}

InheritanceDomain::ThreadState& InheritanceDomain::held_state_of(
    rt::VThread* t) {
  auto it = threads_.find(t->id());
  RVK_CHECK_MSG(it != threads_.end(), "release by thread with no state");
  return it->second;
}

void InheritanceDomain::boost_chain(PriorityInheritanceMonitor* m, int prio) {
  // Each thread blocks on at most one monitor, so the chain is a simple
  // walk; it terminates because priorities strictly increase along it.
  while (m != nullptr) {
    rt::VThread* holder = m->owner();
    if (holder == nullptr || holder->priority() >= prio) return;
    holder->set_priority(prio);
    ++m->boosts_;
    m = state_of(holder).blocked_on;
  }
}

void InheritanceDomain::recompute(rt::VThread* t) {
  // Release path: must not insert (forbidden region — see held_state_of).
  ThreadState& s = held_state_of(t);
  int prio = s.base_priority;
  for (PriorityInheritanceMonitor* m : s.held) {
    m->entry_queue().for_each([&prio](rt::VThread* w) {
      prio = std::max(prio, w->priority());
    });
  }
  t->set_priority(prio);
}

void InheritanceDomain::forget_if_idle(rt::VThread* t) {
  auto it = threads_.find(t->id());
  if (it != threads_.end() && it->second.held.empty() &&
      it->second.blocked_on == nullptr) {
    threads_.erase(it);
  }
}

void PriorityInheritanceMonitor::on_block(rt::VThread* t) {
  domain_.state_of(t).blocked_on = this;
  domain_.boost_chain(this, t->priority());
}

void PriorityInheritanceMonitor::on_wake(rt::VThread* t) {
  // Off the entry queue: the thread retries (and re-blocks, or acquires)
  // before any other thread runs, or it abandons the entry.
  auto it = domain_.threads_.find(t->id());
  if (it != domain_.threads_.end()) it->second.blocked_on = nullptr;
  domain_.forget_if_idle(t);
}

void PriorityInheritanceMonitor::on_acquired(rt::VThread* t) {
  auto& s = domain_.state_of(t);
  s.blocked_on = nullptr;
  s.held.push_back(this);
}

void PriorityInheritanceMonitor::on_released(rt::VThread* t) {
  auto& s = domain_.held_state_of(t);
  auto it = std::find(s.held.begin(), s.held.end(), this);
  RVK_CHECK_MSG(it != s.held.end(), "released monitor not in held set");
  s.held.erase(it);
  domain_.recompute(t);
  domain_.forget_if_idle(t);
}

}  // namespace rvk::monitor
