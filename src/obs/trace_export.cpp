#include "obs/trace_export.hpp"

#include <map>
#include <ostream>
#include <unordered_map>

#include "obs/metrics.hpp"  // json_escape

namespace rvk::obs {

namespace {

// Incremental writer for one JSON array of trace events.
class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {
    os_ << "{\"traceEvents\": [";
  }

  // `extra` is raw JSON appended inside the event object ("" for none).
  void emit(char phase, int pid, std::uint32_t tid, double ts_us,
            const std::string& name, const std::string& extra) {
    os_ << (first_ ? "\n" : ",\n") << "  {\"ph\": \"" << phase
        << "\", \"pid\": " << pid << ", \"tid\": " << tid
        << ", \"ts\": " << ts_us << ", \"name\": \"" << json_escape(name)
        << "\"" << extra << "}";
    first_ = false;
  }

  void metadata(int pid, std::uint32_t tid, const std::string& what,
                const std::string& name) {
    emit('M', pid, tid, 0, what,
         ", \"args\": {\"name\": \"" + json_escape(name) + "\"}");
  }

  void finish() { os_ << "\n]}\n"; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

double us(std::uint64_t wall_ns) {
  return static_cast<double>(wall_ns) / 1000.0;
}

std::string vclock_args(const Event& e, const std::string& more = "") {
  return ", \"args\": {\"vclock\": " + std::to_string(e.vclock) + more + "}";
}

// Per-thread stack of open B slices, so a close event can tell whether its
// begin made it into the ring.
struct OpenSlices {
  std::vector<EventKind> stack;
  std::uint64_t last_ts = 0;
};

}  // namespace

void write_chrome_trace(const std::vector<Event>& events,
                        const std::vector<std::string>& lane_names,
                        std::ostream& os) {
  EventWriter w(os);
  w.metadata(1, 0, "process_name", "threads");
  w.metadata(2, 0, "process_name", "scheduler");
  // One lane per tid, labelled from its latest dispatch {lane, priority}.
  std::map<std::uint32_t, const Event*> lanes;
  for (const Event& e : events) {
    const Event*& d = lanes[e.tid];
    if (e.kind == EventKind::kDispatch) d = &e;
  }
  for (const auto& [tid, d] : lanes) {
    std::string label = "thread " + std::to_string(tid);
    if (d != nullptr) {
      if (d->a - 1 < lane_names.size()) label = lane_names[d->a - 1];
      label += " (prio " + std::to_string(d->b) + ")";
    }
    w.metadata(1, tid, "thread_name", label);
    w.metadata(2, tid, "thread_name", label);
  }

  std::unordered_map<std::uint32_t, OpenSlices> open;      // pid 1 B/E state
  std::unordered_map<std::uint32_t, std::uint64_t> running; // pid 2 dispatch ts
  std::uint64_t last_ts = 0;

  auto close_slice = [&](const Event& e, EventKind opener,
                         const std::string& name, const std::string& extra) {
    OpenSlices& o = open[e.tid];
    if (!o.stack.empty() && o.stack.back() == opener) {
      o.stack.pop_back();
      w.emit('E', 1, e.tid, us(e.wall_ns), name, extra);
    } else {
      // The matching begin was dropped by the ring — degrade to an instant
      // rather than emitting an unbalanced E.
      w.emit('i', 1, e.tid, us(e.wall_ns), name,
             extra + ", \"s\": \"t\"");
    }
  };

  for (const Event& e : events) {
    if (e.wall_ns > last_ts) last_ts = e.wall_ns;
    const std::string kind_name = event_kind_name(e.kind);
    switch (e.kind) {
      // ---- Scheduler view (pid 2): dispatch → switch-out = one X slice.
      case EventKind::kDispatch:
        running[e.tid] = e.wall_ns;
        break;
      case EventKind::kSwitchYield:
      case EventKind::kSwitchBlock:
      case EventKind::kSwitchSleep:
      case EventKind::kSwitchFinish: {
        auto it = running.find(e.tid);
        if (it != running.end()) {
          const double dur = us(e.wall_ns - it->second);
          w.emit('X', 2, e.tid, us(it->second), "run",
                 ", \"dur\": " + std::to_string(dur) +
                     vclock_args(e, ", \"end\": \"" + kind_name + "\""));
          running.erase(it);
        }
        break;
      }

      // ---- Thread view (pid 1): durations.
      case EventKind::kMonitorContend:
        open[e.tid].stack.push_back(e.kind);
        w.emit('B', 1, e.tid, us(e.wall_ns), "contended",
               vclock_args(e, ", \"deposited_priority\": " +
                                  std::to_string(e.b)));
        break;
      case EventKind::kMonitorAcquire:
        if (e.b != 0) {
          close_slice(e, EventKind::kMonitorContend, "contended",
                      vclock_args(e));
        } else {
          w.emit('i', 1, e.tid, us(e.wall_ns), kind_name,
                 vclock_args(e) + ", \"s\": \"t\"");
        }
        break;
      case EventKind::kSectionEnter:
        open[e.tid].stack.push_back(e.kind);
        w.emit('B', 1, e.tid, us(e.wall_ns), "section",
               vclock_args(e, ", \"frame\": " + std::to_string(e.a)));
        break;
      case EventKind::kSectionCommit:
      case EventKind::kSectionAbort:
        close_slice(e, EventKind::kSectionEnter, "section",
                    vclock_args(e, ", \"outcome\": \"" + kind_name + "\""));
        break;

      // ---- Thread view (pid 1): instants.
      default:
        w.emit('i', 1, e.tid, us(e.wall_ns), kind_name,
               vclock_args(e, ", \"a\": " + std::to_string(e.a) +
                                  ", \"b\": " + std::to_string(e.b)) +
                   ", \"s\": \"t\"");
        break;
    }
    open[e.tid].last_ts = e.wall_ns;
  }

  // Close anything still open so the JSON stays balanced: threads may end
  // the run inside a section, and a thread may still be dispatched.
  for (auto& [tid, o] : open) {
    while (!o.stack.empty()) {
      const EventKind opener = o.stack.back();
      o.stack.pop_back();
      w.emit('E', 1, tid, us(last_ts),
             opener == EventKind::kSectionEnter ? "section" : "contended",
             ", \"args\": {\"truncated\": 1}");
    }
  }
  for (const auto& [tid, start] : running) {
    w.emit('X', 2, tid, us(start), "run",
           ", \"dur\": " + std::to_string(us(last_ts - start)) +
               ", \"args\": {\"truncated\": 1}");
  }

  w.finish();
}

void write_decisions_chrome_trace(const std::vector<explore::Decision>& trace,
                                  std::ostream& os) {
  EventWriter w(os);
  w.metadata(1, 0, "process_name", "explored schedule");
  // Name each chosen thread's track once.
  std::unordered_map<std::uint32_t, bool> seen;
  for (const explore::Decision& d : trace) {
    if (!seen[d.chosen]) {
      seen[d.chosen] = true;
      w.metadata(1, d.chosen, "thread_name",
                 "thread " + std::to_string(d.chosen));
    }
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const explore::Decision& d = trace[i];
    w.emit('X', 1, d.chosen, static_cast<double>(i), "run",
           ", \"dur\": 1, \"args\": {\"decision\": " + std::to_string(i) +
               ", \"candidates\": " + std::to_string(d.candidates) + "}");
  }
  w.finish();
}

}  // namespace rvk::obs
