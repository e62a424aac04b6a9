#include "jmm/trace.hpp"

#include "core/engine.hpp"
#include "rt/scheduler.hpp"

namespace rvk::jmm {

Trace::Trace(core::Engine& engine) : engine_(engine) {
  engine_.subscribe(this);
}

Trace::~Trace() { engine_.unsubscribe(this); }

void Trace::on_access(const heap::TraceAccess& a) {
  Event e;
  switch (a.kind) {
    // Unlogged stores model stores the compiler proved thread-local (§1.1);
    // the recorder keeps its pre-promotion view and does not trace them (the
    // analyzer, not the JMM checker, polices their misuse inside sections).
    case heap::TraceAccess::Kind::kUnloggedWrite:
      return;
    case heap::TraceAccess::Kind::kRead:
      e.kind = EventKind::kRead;
      break;
    case heap::TraceAccess::Kind::kWrite:
      e.kind = EventKind::kWrite;
      break;
    case heap::TraceAccess::Kind::kVolatileRead:
      e.kind = EventKind::kVolatileRead;
      break;
    case heap::TraceAccess::Kind::kVolatileWrite:
      e.kind = EventKind::kVolatileWrite;
      break;
  }
  rt::VThread* t = rt::current_vthread();
  e.tid = t != nullptr ? t->id() : 0;
  e.loc = Loc{a.base, a.offset};
  e.value = a.value;
  e.old_value = a.old_value;
  if (e.kind == EventKind::kWrite || e.kind == EventKind::kVolatileWrite) {
    // A write's frame is meaningful only when performed inside a section.
    e.frame = (t != nullptr && t->sync_depth > 0) ? t->current_frame_id : 0;
    loc_of_.insert_or_assign(a.addr, e.loc);
  }
  events_.push_back(e);
}

void Trace::push(EventKind kind, std::uint32_t tid, const void* monitor,
                 std::uint64_t frame) {
  Event e;
  e.kind = kind;
  e.tid = tid;
  e.monitor = monitor;
  e.frame = frame;
  events_.push_back(e);
}

void Trace::on_engine_event(const core::EngineEvent& e) {
  using K = obs::EventKind;
  const std::uint32_t tid = e.thread->id();
  const void* mon = e.monitor;
  switch (e.kind) {
    case K::kSectionEnter:
      push(EventKind::kAcquire, tid, mon, 0);
      break;
    case K::kSectionCommit:
      // The stack is already popped: empty means the outermost commit.
      if (e.frames->empty()) {
        push(EventKind::kCommitOuter, tid, nullptr, 0);
      }
      push(EventKind::kRelease, tid, mon, 0);
      break;
    case K::kSectionAbort:
      push(EventKind::kAbortFrame, tid, nullptr, e.frame);
      push(EventKind::kRelease, tid, mon, 0);
      break;
    case K::kPin:
      push(EventKind::kPin, tid, nullptr, e.frame);
      break;
    case K::kUndoReplay: {
      // Published just before the replay: the aux newest entries are the
      // ones about to be restored, in replay order.  A slot no traced write
      // touched resolves to the null Loc, an orphan the checker reports.
      const log::UndoLog& undo = e.thread->undo_log;
      const std::size_t mark = undo.size() - e.aux;
      undo.for_each_above_reverse(mark, [&](const log::Entry& u) {
        Event ev;
        ev.kind = EventKind::kUndo;
        ev.tid = tid;
        const auto it = loc_of_.find(u.addr);
        ev.loc = it != loc_of_.end() ? it->second : Loc{};
        ev.value = u.old_value;
        events_.push_back(ev);
      });
      break;
    }
    default:
      break;
  }
}

}  // namespace rvk::jmm
