#include "core/report.hpp"

#include <iomanip>
#include <ostream>

#include "analysis/hooks.hpp"

namespace rvk::core {

void print_engine_report(Engine& engine, std::ostream& os) {
  const EngineStats& st = engine.stats();
  os << "=== revocation engine report ===\n";
  os << "sections:    " << st.sections_entered << " entered, "
     << st.sections_committed << " committed, " << st.frames_aborted
     << " frames aborted, " << st.rollbacks_completed
     << " sections re-executed\n";
  os << "inversions:  " << st.inversions_detected_acquire << " at acquire, "
     << st.inversions_detected_background << " by background sweep\n";
  os << "revocations: " << st.revocations_requested << " requested, "
     << st.revocations_denied_pinned << " denied (non-revocable), "
     << st.revocations_denied_budget << " denied (budget), "
     << st.revocations_dropped_stale << " dropped (stale), "
     << st.revocations_lost_to_commit << " lost to commit\n";
  os << "deadlocks:   " << st.deadlocks_detected << " detected, "
     << st.deadlocks_broken << " broken\n";
  os << "jmm guard:   " << st.foreign_reads_observed
     << " escaped dependencies observed, " << st.frames_pinned
     << " frames pinned non-revocable\n";
  os << "undo log:    " << st.log_appends << " entries recorded, "
     << st.words_undone << " words undone by rollbacks\n";
  os << "allocations: " << st.spec_allocs_reclaimed
     << " speculative objects reclaimed by rollbacks\n";
  if (const analysis::Analyzer* a = engine.analyzer()) {
    os << "analyzer:    " << a->report().violations.size()
       << " violations (RVK_ANALYZE; see analysis report)\n";
  }
}

void print_monitor_report(const Engine& engine, std::ostream& os) {
  os << "=== monitors ===\n";
  os << std::left << std::setw(18) << "name" << std::right << std::setw(10)
     << "acquires" << std::setw(11) << "contended" << std::setw(10)
     << "handoffs" << std::setw(8) << "steals" << std::setw(7) << "waits"
     << std::setw(9) << "queued" << "  owner\n";
  for (const RevocableMonitor* m : engine.monitors()) {
    const monitor::MonitorStats& st = m->stats();
    os << std::left << std::setw(18) << m->name() << std::right
       << std::setw(10) << st.acquires << std::setw(11) << st.contended
       << std::setw(10) << st.handoffs << std::setw(8) << st.steals
       << std::setw(7) << st.waits << std::setw(9) << m->entry_queue().size();
    if (m->owner() != nullptr) {
      os << "  " << m->owner()->name() << " (deposited prio "
         << m->deposited_priority() << ")";
    } else {
      os << "  -";
    }
    os << "\n";
  }
}

}  // namespace rvk::core
