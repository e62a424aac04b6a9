#include "monitor/priority_ceiling.hpp"

#include <algorithm>

namespace rvk::monitor {

void CeilingDomain::register_thread(rt::VThread* t) {
  state_of(t).base_priority = t->priority();
}

int CeilingDomain::base_priority(rt::VThread* t) const {
  auto it = threads_.find(t->id());
  return it != threads_.end() ? it->second.base_priority : t->priority();
}

CeilingDomain::ThreadState& CeilingDomain::state_of(rt::VThread* t) {
  auto [it, inserted] = threads_.try_emplace(t->id());
  if (inserted) it->second.base_priority = t->priority();
  return it->second;
}

CeilingDomain::ThreadState& CeilingDomain::held_state_of(rt::VThread* t) {
  auto it = threads_.find(t->id());
  RVK_CHECK_MSG(it != threads_.end(), "release by thread with no state");
  return it->second;
}

void CeilingDomain::recompute(rt::VThread* t) {
  // Release path: must not insert (forbidden region — see held_state_of).
  ThreadState& s = held_state_of(t);
  int prio = s.base_priority;
  for (PriorityCeilingMonitor* m : s.held) {
    prio = std::max(prio, m->ceiling());
  }
  t->set_priority(prio);
}

void PriorityCeilingMonitor::on_acquired(rt::VThread* t) {
  auto& s = domain_.state_of(t);
  s.held.push_back(this);
  if (t->priority() < ceiling_) t->set_priority(ceiling_);
}

void PriorityCeilingMonitor::on_released(rt::VThread* t) {
  auto& s = domain_.held_state_of(t);
  auto it = std::find(s.held.begin(), s.held.end(), this);
  RVK_CHECK_MSG(it != s.held.end(), "released monitor not in held set");
  s.held.erase(it);
  domain_.recompute(t);
  // Holding nothing: drop the entry (a free, legal on the release path).
  if (s.held.empty()) domain_.threads_.erase(t->id());
}

}  // namespace rvk::monitor
