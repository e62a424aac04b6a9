// Typed runtime events for the observability subsystem (DESIGN.md §10).
//
// Every record answers "what happened, to which thread, when" on BOTH clock
// domains the runtime has: the wall clock (steady_clock nanoseconds since
// recorder install — what a profiler wants) and the virtual clock (scheduler
// ticks, one per yield point — what the paper's deterministic experiments
// are phrased in).  Keeping both on every event lets a trace correlate the
// deterministic schedule with real time without a join step.
//
// Events are PODs sized for pre-reserved ring slots: recording one is a
// struct store, so it is legal inside the forbidden regions (commit/abort
// and monitor release paths) where the runtime must not allocate, yield, or
// block (CLAUDE.md invariant).
#pragma once

#include <cstdint>

namespace rvk::obs {

enum class EventKind : std::uint8_t {
  // Scheduler (rt/): processor hand-offs.
  kDispatch,       // thread scheduled onto the processor; a = lane-name
                   // index (Recorder::lane_name), b = priority
  kSwitchYield,    // switched out: quantum expiry / voluntary yield
  kSwitchBlock,    // switched out: parked on a wait queue
  kSwitchSleep,    // switched out: timed sleep on the virtual clock
  kSwitchFinish,   // switched out: thread body completed

  // Monitors (monitor/, core/): a = monitor identity, b = kind-specific.
  kMonitorContend,  // acquire had to block; b = deposited owner priority
  kMonitorAcquire,  // took ownership (non-recursive); b = 1 if was contended
  kMonitorRelease,  // dropped ownership fully; b = 1 if reserving (rollback)
  kMonitorBarge,    // displaced a rollback reservation (higher priority)
  kMonitorAbandon,  // try_enter gave up; b = 1 if cancelled, 0 if timed out

  // Engine (core/): a = frame id, b = kind-specific.
  kSectionEnter,
  kSectionCommit,
  kSectionAbort,    // frame unwound by a rollback
  kSectionRetry,    // rollback target restarted its body (§3.1.2)
  kRevokeRequest,   // revocation posted against this thread (§4)
  kRevokeDeliver,   // rollback exception about to be thrown
  kRevokeDenied,    // request refused (pinned / budget); b = 1 when budget
  kRevokeDropped,   // request invalid at delivery (stale / lost to commit)
  kDeadlockBreak,   // this thread chosen as deadlock victim (§1.1)
  kPin,             // frame(s) marked non-revocable (§2.2)
  kUndoReplay,      // abort replays b undo-log entries in reverse (§3.1.2)
  kUnpin,           // a pinned frame left the stack (committed or aborted)
};

// Stable display name ("dispatch", "monitor-contend", ...).
const char* event_kind_name(EventKind k);

struct Event {
  std::uint64_t wall_ns = 0;  // steady_clock ns since recorder install
  std::uint64_t vclock = 0;   // scheduler virtual ticks (yield points)
  std::uint64_t a = 0;        // monitor identity or frame id (see EventKind)
  std::uint64_t b = 0;        // auxiliary payload (priority, words, flags)
  std::uint64_t seq = 0;      // record order in the shard's ring
  std::uint32_t tid = 0;      // rt::VThread id
  EventKind kind = EventKind::kDispatch;
};

}  // namespace rvk::obs
