#include "analysis/hooks.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/check.hpp"
#include "core/revocable_monitor.hpp"
#include "log/undo_log.hpp"
#include "obs/event.hpp"
#include "rt/scheduler.hpp"

namespace rvk::analysis {

namespace {

std::unique_ptr<Analyzer> g_analyzer;
// Shared install (DESIGN.md §16): under sharding every shard's engine
// installs/uninstalls, but one analyzer observes the whole process — first
// in creates it, last out tears it down.  g_install_mu orders that pairing
// across shard threads; g_dispatch_mu serializes the handler bodies, whose
// tables (lockset, frames_of_) are process-global while events arrive from
// every shard under kOsThreads.  The analyzer is a diagnostic layer, never
// enabled in measured runs, so a mutex per event is acceptable.
int g_install_count = 0;
std::mutex g_install_mu;
std::mutex g_dispatch_mu;

void access_trampoline(const heap::TraceAccess& a) {
  std::lock_guard<std::mutex> lk(g_dispatch_mu);
  g_analyzer->on_access(a);
}
void switch_trampoline(rt::VThread* t, const char* where) {
  std::lock_guard<std::mutex> lk(g_dispatch_mu);
  g_analyzer->on_forbidden_switch(t, where);
}

const char* monitor_name(const core::RevocableMonitor* m) {
  return m != nullptr ? m->name().c_str() : "?";
}

const char* pin_reason_name(core::PinReason r) {
  switch (r) {
    case core::PinReason::kNone:
      return "none";
    case core::PinReason::kDependency:
      return "dependency";
    case core::PinReason::kNativeCall:
      return "native-call";
    case core::PinReason::kWait:
      return "wait";
    case core::PinReason::kBudget:
      return "budget";
    case core::PinReason::kManual:
      return "manual";
  }
  return "?";
}

}  // namespace

bool env_enabled() {
  // Same convention as harness/env.cpp's env_flag: set and not "0...".
  const char* v = std::getenv("RVK_ANALYZE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

Analyzer* Analyzer::install() {
  std::lock_guard<std::mutex> lk(g_install_mu);
  if (g_install_count++ == 0) {
    RVK_CHECK_MSG(g_analyzer == nullptr,
                  "revocation-safety analyzer already installed");
    g_analyzer.reset(new Analyzer());
    heap::set_analysis_hook(&access_trampoline);
    rt::set_switch_probe(&switch_trampoline);
    rt::set_region_marking(true);
  }
  return g_analyzer.get();
}

void Analyzer::uninstall() {
  std::lock_guard<std::mutex> lk(g_install_mu);
  if (g_analyzer == nullptr) return;
  if (--g_install_count > 0) return;  // peers still observing
  heap::set_analysis_hook(nullptr);
  rt::set_switch_probe(nullptr);
  rt::set_region_marking(false);
  // Surface breaches even from binaries that never ask for the report
  // (fig/bench runs under RVK_ANALYZE=1).
  if (!g_analyzer->report_.violations.empty()) g_analyzer->print(std::cerr);
  g_analyzer.reset();
}

Analyzer* Analyzer::active() { return g_analyzer.get(); }

void Analyzer::print(std::ostream& os) const { report_.print(os); }

void Analyzer::record(Violation v) {
  report_.violations.push_back(std::move(v));
}

void Analyzer::on_access(const heap::TraceAccess& a) {
  rt::VThread* t = rt::current_vthread();
  // Host code (no scheduler running) cannot interleave with green threads;
  // its accesses carry no race or rollback risk.
  if (t == nullptr) return;
  ++report_.accesses_checked;

  using K = heap::TraceAccess::Kind;

  if (a.kind == K::kUnloggedWrite) {
    // An elided barrier is only sound outside synchronized sections; inside
    // one, a rollback could not revert the store (§3.1.2).
    if (t->sync_depth > 0) {
      Violation v;
      v.kind = Violation::Kind::kBarrierBypass;
      v.tid = t->id();
      v.base = a.base;
      v.offset = a.offset;
      v.frame = t->current_frame_id;
      std::ostringstream os;
      os << "unlogged store at (" << a.base << ", " << a.offset
         << ") inside a synchronized section (sync_depth=" << t->sync_depth
         << ", frame " << t->current_frame_id << ")";
      v.detail = os.str();
      record(std::move(v));
    }
    // An unlogged store asserts thread-locality; it is not lockset material
    // (the in-section case was just flagged, the rest is pre-publication).
    return;
  }

  if (a.kind == K::kVolatileRead || a.kind == K::kVolatileWrite) {
    // Volatiles are synchronization, not data (JLS); feeding them to the
    // lockset would flag every §2.2 / Figure-3 volatile handshake.  Undo-log
    // coverage still applies to volatile stores (EntryKind::kVolatileSlot).
    if (a.kind == K::kVolatileWrite) check_logged_store(t, a);
    return;
  }

  if (a.kind == K::kWrite) check_logged_store(t, a);

  collect_held(t);
  LocksetTable::Outcome o = lockset_.on_access(
      LocKey{a.base, a.offset}, t->id(), a.kind == K::kWrite, held_);
  report_.locations_tracked = lockset_.size();
  if (o.race) {
    Violation v;
    v.kind = Violation::Kind::kLocksetRace;
    v.tid = t->id();
    v.base = a.base;
    v.offset = a.offset;
    v.frame = t->current_frame_id;
    std::ostringstream os;
    os << (a.kind == K::kWrite ? "write" : "read") << " of (" << a.base << ", "
       << a.offset << ") by '" << t->name()
       << "' emptied the candidate lockset (holds ";
    if (held_.empty()) {
      os << "no monitor";
    } else {
      for (std::size_t i = 0; i < held_.size(); ++i) {
        os << (i != 0 ? ", " : "") << "'"
           << monitor_name(
                  static_cast<const core::RevocableMonitor*>(held_[i]))
           << "'";
      }
    }
    os << "): no monitor consistently guards this write-shared location";
    v.detail = os.str();
    record(std::move(v));
  }
}

void Analyzer::check_logged_store(rt::VThread* t, const heap::TraceAccess& a) {
  if (t->sync_depth == 0) return;  // outside a section stores are permanent
  ++report_.bypass_checks;
  // Accessors trace immediately after the barrier, so a store that appended
  // has its entry at the log tail, under the same (base, offset) identity.
  // A store the write filter skipped (log/write_filter.hpp) is covered by
  // an earlier entry in the current frame's segment [log_mark, size).  A
  // section no engine announced (tests drive sync_depth by hand) has no
  // known frame; its segment is the whole log.
  const log::UndoLog& ul = t->undo_log;
  const auto covers = [&](std::size_t i) {
    const log::Entry& e = ul.entry(i);
    return e.base == a.base && e.offset == a.offset;
  };
  if (!ul.empty() && covers(ul.size() - 1)) return;
  std::size_t mark = 0;
  auto it = frames_of_.find(t->id());
  if (it != frames_of_.end() && it->second != nullptr &&
      !it->second->empty()) {
    mark = it->second->back().log_mark;
  }
  for (std::size_t i = ul.size(); i > mark; --i) {
    if (covers(i - 1)) return;
  }
  Violation v;
  v.kind = Violation::Kind::kBarrierBypass;
  v.tid = t->id();
  v.base = a.base;
  v.offset = a.offset;
  v.frame = t->current_frame_id;
  std::ostringstream os;
  os << "in-section store to (" << a.base << ", " << a.offset
     << ") by '" << t->name()
     << "' has no matching undo-log entry at the log tail or in its "
        "frame's log segment";
  v.detail = os.str();
  record(std::move(v));
}

void Analyzer::collect_held(rt::VThread* t) {
  held_.clear();
  auto it = frames_of_.find(t->id());
  if (it == frames_of_.end() || it->second == nullptr) return;
  for (const core::Frame& f : *it->second) {
    const void* m = f.monitor;
    if (std::find(held_.begin(), held_.end(), m) == held_.end()) {
      held_.push_back(m);
    }
  }
}

void Analyzer::on_engine_event(const core::EngineEvent& e) {
  using K = obs::EventKind;
  // Frame events: enter/commit/abort, pins (a budget refusal pins too), and
  // deliveries.  Everything else on the stream is ignored.
  const bool pin =
      e.kind == K::kPin || (e.kind == K::kRevokeDenied && e.aux == 1);
  const bool deliver = e.kind == K::kRevokeDeliver;
  if (!pin && !deliver && e.kind != K::kSectionEnter &&
      e.kind != K::kSectionCommit && e.kind != K::kSectionAbort) {
    return;
  }
  std::lock_guard<std::mutex> lk(g_dispatch_mu);
  ++report_.frame_events;
  // Cache a pointer to the thread's *live* frame stack: held-monitor sets
  // for the lockset always reflect the current stack, not the event's
  // snapshot in time.
  if (e.thread != nullptr) frames_of_[e.thread->id()] = e.frames;
  if (pin || deliver) audit_pin_closure(e);
  if (deliver) audit_delivery(e);
}

// §2.2: non-revocability is upward-closed — "all sections enclosing a
// non-revocable section are also non-revocable".  Frame ids increase with
// nesting depth, so the pinned frames must form a prefix of the stack.
void Analyzer::audit_pin_closure(const core::EngineEvent& e) {
  if (e.frames == nullptr) return;
  bool seen_revocable = false;
  for (const core::Frame& f : *e.frames) {
    if (!f.nonrevocable) {
      seen_revocable = true;
      continue;
    }
    if (!seen_revocable) continue;
    if (std::find(pin_reported_.begin(), pin_reported_.end(), f.id) !=
        pin_reported_.end()) {
      continue;
    }
    pin_reported_.push_back(f.id);
    Violation v;
    v.kind = Violation::Kind::kPinClosure;
    v.tid = e.thread != nullptr ? e.thread->id() : 0;
    v.frame = f.id;
    std::ostringstream os;
    os << "frame " << f.id << " (monitor '" << monitor_name(f.monitor)
       << "', pin reason " << pin_reason_name(f.pin_reason)
       << ") is pinned but an enclosing frame is still revocable — "
          "upward closure (§2.2) broken";
    v.detail = os.str();
    record(std::move(v));
  }
}

// Delivery unwinds and aborts every active frame with id >= the target's;
// any pinned frame in that range would be rolled back despite its pin —
// exactly the unsoundness non-revocability exists to prevent.
void Analyzer::audit_delivery(const core::EngineEvent& e) {
  if (e.frames == nullptr) return;
  for (const core::Frame& f : *e.frames) {
    if (f.id < e.frame || !f.nonrevocable) continue;
    Violation v;
    v.kind = Violation::Kind::kPinClosure;
    v.tid = e.thread != nullptr ? e.thread->id() : 0;
    v.frame = f.id;
    std::ostringstream os;
    os << "revocation targeting frame " << e.frame
       << " would roll back pinned frame " << f.id << " (monitor '"
       << monitor_name(f.monitor) << "', pin reason "
       << pin_reason_name(f.pin_reason) << ")";
    v.detail = os.str();
    record(std::move(v));
  }
}

void Analyzer::on_forbidden_switch(rt::VThread* t, const char* where) {
  Violation v;
  v.kind = Violation::Kind::kForbiddenRegion;
  v.tid = t != nullptr ? t->id() : 0;
  v.frame = t != nullptr ? t->current_frame_id : 0;
  std::ostringstream os;
  os << where << " reached inside a forbidden region";
  if (t != nullptr) {
    os << " (thread '" << t->name()
       << "', depth " << t->forbidden_region_depth << ")";
  }
  os << " — commit/abort and monitor release paths must stay atomic";
  v.detail = os.str();
  record(std::move(v));
}

}  // namespace rvk::analysis
