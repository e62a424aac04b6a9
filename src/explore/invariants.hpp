// Per-step protocol invariants for the schedule-exploration harness.
//
// Every yield point is a quiescent point: the engine's commit/abort and the
// monitors' release paths are forbidden regions (no switch points inside,
// CLAUDE.md), so at a yield point every cross-layer data structure must be
// internally consistent.  The registry re-derives the paper's structural
// invariants from live state after each step of an explored schedule:
//
//  * frame stacks mirror sync_depth, ids strictly increase with nesting,
//    undo-log watermarks are monotone (§3.1.2);
//  * the undo log is empty outside synchronized sections;
//  * non-revocability is upward-closed — pinned frames form a prefix of the
//    frame stack (§2.2);
//  * monitor headers are coherent (owner/recursion/deposited priority), and
//    queued threads really are blocked;
//  * only rollback releases grant reservations — ordinary release must
//    allow barging (§4; CLAUDE.md: "an always-reserving monitor silently
//    kills the benchmark's priority inversions");
//  * the section ledger balances: entered == committed + aborted + active;
//  * cancellation safety (DESIGN.md §14): an abortable waiter is never
//    simultaneously cancelled and reserved, an armed timed-block timer
//    implies the thread is still parked in a queue, and per-monitor
//    in-transit accounting never undercounts the queue population.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/engine.hpp"
#include "rt/scheduler.hpp"

namespace rvk::explore {

// Thrown from green-thread context when a check fails.  Deliberately NOT
// derived from std::exception (like core::RollbackException): scenario-level
// catch(std::exception&) handlers cannot swallow it, while the engine's
// catch(...) path still commits frames and releases monitors on the way
// out, so the unwind itself cannot corrupt the state being reported.
struct InvariantViolation {
  std::string message;
};

class InvariantRegistry final : public core::EngineObserver {
 public:
  InvariantRegistry(rt::Scheduler& sched, core::Engine& engine)
      : sched_(sched), engine_(engine) {}

  // Engine event subscriber: counts per-monitor rollback releases
  // (kSectionAbort) for the barging/reservation invariant.
  void on_engine_event(const core::EngineEvent& e) override;

  // Runs every check; throws InvariantViolation on the first failure.
  // Called from the scheduler's step hook (green-thread context) after
  // every yield point.
  void check_step(rt::VThread* current);

  // Final sweep after the scheduler drained.
  void check_final();

  std::uint64_t checks_run() const { return checks_run_; }

 private:
  // Returns a description of the first violated invariant, "" when all
  // hold.
  std::string check_all();

  rt::Scheduler& sched_;
  core::Engine& engine_;
  std::unordered_map<const core::RevocableMonitor*, std::uint64_t> aborts_;
  std::uint64_t checks_run_ = 0;
};

}  // namespace rvk::explore
