// Green-thread control block.
//
// The paper's platform, Jikes RVM 2.2.1, multiplexes Java threads onto
// virtual processors with *quasi-preemptive* scheduling: "thread
// context-switches can happen only at pre-specified yield points inserted by
// the compiler" (§3.1, footnote 4).  VThread reproduces that thread model on
// ucontext fibers: a thread runs until it executes a yield point, which may
// switch it out (quantum expiry) and is also where pending revocation
// requests are delivered ("the scheduler … triggers rollback of the low
// priority thread at the next yield point", §4).
//
// VThread deliberately carries the handful of fields the upper layers need
// on their fastest paths — `sync_depth` is the write-barrier fast-path test
// ("all compiled code needs at least a fast-path test on every non-local
// update to check if the thread is executing within a synchronized section",
// §1.1) and `revoke_requested` is the yield-point test.
#pragma once

#include <ucontext.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "log/undo_log.hpp"
#include "log/write_filter.hpp"
#include "rt/stack.hpp"
#include "rt/wait_queue.hpp"

namespace rvk::monitor {
class MonitorBase;  // back-link target only; rt/ never dereferences it
}

namespace rvk::rt {

class Scheduler;

using ThreadId = std::uint32_t;

// The Java priority range constants (kMinPriority/kNormPriority/
// kMaxPriority) live in rt/wait_queue.hpp, next to the priority-bucketed
// queue structure they size.

enum class ThreadState : std::uint8_t {
  kNew,       // spawned, not yet dispatched
  kRunnable,  // in the ready queue
  kRunning,   // the single currently executing thread
  kBlocked,   // parked in some WaitQueue
  kSleeping,  // timed sleep on the virtual clock
  kFinished,  // body returned (or died with an exception)
};

// Why a running thread returned control to the scheduler.
enum class SwitchReason : std::uint8_t {
  kYield,    // quantum expiry or voluntary yield
  kBlock,    // parked on a wait queue
  kSleep,    // timed sleep
  kFinish,   // thread body completed
};

struct ThreadStats {
  std::uint64_t dispatches = 0;    // times scheduled onto the processor
  std::uint64_t yield_points = 0;  // yield points executed
  std::uint64_t blocks = 0;        // times parked on a queue
};

// Engine-side per-thread state (core::ThreadSync).  rt never looks inside;
// the control block owns it, so it is recycled and freed with the block.
class EngineState {
 public:
  EngineState() = default;
  EngineState(const EngineState&) = delete;
  EngineState& operator=(const EngineState&) = delete;
  virtual ~EngineState() = default;
};

// The obs recorder's per-thread state (DESIGN.md §10).  rt never looks
// inside; start() resets it, as the recorder does when `stamp` is stale.
struct ObsWindow {
  bool open = false;
  std::uint64_t wall_ns = 0, vclock = 0;  // when the window opened
};
struct ObsState {
  std::uint64_t stamp = 0;  // recorder run the fields below belong to
  std::uint32_t lane = 0;   // lane-name index; 0 until the recorder interns
  ObsWindow wait;           // contend → acquire
  ObsWindow inversion;      // inverted contend → acquire
  ObsWindow rollback;       // revocation request → section retry
};

// A control block.  The scheduler recycles it (DESIGN.md §15): when a thread
// finishes, its block goes back to the scheduler's bounded free list and the
// next spawn re-initialises it in place under a fresh, never-reused id.  A
// VThread* is therefore a handle to a *live* thread only; anything that must
// outlive the thread (join, post-mortems, tables of past threads) keys on
// id().
class VThread {
 public:
  explicit VThread(Scheduler* sched) : sched_(sched) {}

  VThread(const VThread&) = delete;
  VThread& operator=(const VThread&) = delete;

  ThreadId id() const { return id_; }
  const std::string& name() const { return name_; }
  int priority() const { return priority_; }

  // Changing priority while the thread sits in a priority-ordered queue
  // (priority inheritance boosting a holder that is itself blocked, or the
  // engine boosting a runnable revocation victim) re-buckets it in place so
  // the queue's O(1) pop still honours the new priority.
  void set_priority(int p) {
    if (p == priority_) return;
    priority_ = p;
    if (queue_node_.queue != nullptr) queue_node_.queue->reposition(this);
  }
  ThreadState state() const { return state_; }
  Scheduler* scheduler() const { return sched_; }
  const ThreadStats& stats() const { return stats_; }

  // Execution stack; nullptr once the thread has finished and its mapping
  // went back to the pool.
  const Stack* stack() const { return stack_ ? &*stack_ : nullptr; }

  // ---- Synchronized-section support (used by heap/ barriers and core/) ----

  // Depth of nested synchronized sections; >0 enables the write-barrier
  // slow path.
  int sync_depth = 0;

  // True while the innermost synchronized frame exists only as the lazy
  // registers in core::ThreadSync (DESIGN.md §11): the biased fast path
  // deferred pushing a real core::Frame.  Green-thread atomicity bounds the
  // window — any yield point, blocking call, nested section entry, or first
  // logged write materialises the frame first, so no other thread can ever
  // observe the flag set.  Only the revocation engine writes it.
  bool lazy_frame = false;

  // True when the write barrier stamps writer marks for this thread's
  // in-section stores (the §2.2 JMM guard): set by its engine when the
  // thread registers (rt::EngineLink::adopt), so shards whose engines
  // differ in jmm_guard each mark only their own stores.
  bool marks_writes = false;

  // Per-thread sequential undo log (paper §3.1.2).
  log::UndoLog undo_log;

  // Lossy filter in front of undo_log (log/write_filter.hpp): the write
  // barrier appends only a frame's first store to a word.  Holds storage
  // from the thread's first logged store until it finishes.
  log::WriteFilter write_filter;

  // Revocation request posted by another thread; examined at every yield
  // point and on every wakeup from blocking.  `revoke_target_frame` names the
  // monitor frame (core::Frame id) whose synchronized section must restart;
  // `revoke_is_deadlock` marks requests that broke a deadlock cycle (the
  // victim backs off before retrying — livelock guard).
  bool revoke_requested = false;
  bool revoke_is_deadlock = false;
  std::uint64_t revoke_target_frame = 0;

  // True while unwinding/undoing a revoked section; lets RAII cleanups
  // (rvk::Cleanup) suppress their actions, reproducing the modified
  // exception dispatch that skips intervening handlers (paper §3.1.2).
  bool in_rollback = false;

  // Incremented whenever the thread's outermost synchronized frame commits
  // or aborts.  heap/ stamps this epoch into per-object writer metadata so
  // stale metadata can be ignored without eager clearing (see jmm/).
  std::uint32_t section_epoch = 1;

  // Frame id of the innermost active synchronized frame (0 when none);
  // maintained by core::Engine, stamped into per-object writer metadata by
  // the write barrier so jmm/ can name which frames a foreign read pins.
  std::uint64_t current_frame_id = 0;

  // Engine-side per-thread state, created at the thread's first section
  // entry.  It stays with the block across recycling; the engine resets it
  // when the block's next thread registers (core::Engine::sync_of).
  std::unique_ptr<EngineState> engine_state;

  // Observability state, written only by the installed recorder.
  ObsState obs;

  // Depth of nested forbidden regions (engine commit/abort and monitor
  // release paths, which rely on green-thread atomicity — see CLAUDE.md).
  // Maintained only while the revocation-safety analyzer marks regions
  // (rt::set_region_marking); a yield point or blocking call executed while
  // nonzero fires the analyzer's switch probe.  Always zero otherwise, so
  // the yield-point fast path pays a single never-taken field test.
  int forbidden_region_depth = 0;

  // Set when Scheduler::interrupt() yanked this thread out of a wait queue
  // or a sleep; the blocking primitive that parked it must re-check its
  // condition (and pending revocations) instead of assuming a real wakeup.
  bool interrupted = false;

  // Set when a timed block (block_current_on_for) expired before a wakeup.
  bool timed_out = false;

  // ---- Abortable acquisition (DESIGN.md §14) ----

  // Cancellation request posted by monitor::MonitorBase::cancel (or a
  // CancelToken).  Abortable waits (try_enter / cancellable wait) observe it
  // and abandon; plain acquire()/wait() deliberately ignore it (Java
  // fidelity: lock acquisition is not interruptible).
  bool cancel_requested = false;

  // True while the thread is parked (or looping) inside an abortable
  // acquisition (MonitorBase::try_enter).  Scopes the "never cancelled AND
  // reserved" invariant: a cancelled thread in a plain acquire() may still
  // legitimately be granted a reservation.
  bool abortable_wait = false;

  // Back-link to the monitor currently reserving for this thread (mirror of
  // MonitorBase::reserved_ == this; maintained exclusively by the monitor
  // layer via set_reserved).  Lets cancellation return a reservation in O(1)
  // without scanning monitors.  rt/ stores but never dereferences it.
  monitor::MonitorBase* reserved_in = nullptr;

  // Queue this thread is currently parked in, nullptr when not parked.
  // Introspection for invariant checking (explore/) — comparison only.
  const WaitQueue* blocked_on() const { return blocked_on_; }

  // Internal: context-trampoline target; runs the user body, capturing any
  // escaping exception.  Not for direct use.
  void entry();

 private:
  friend class Scheduler;
  friend class WaitQueue;

  // (Re)initialises the block for a new thread: every per-thread field
  // returns to its spawn state.  The deadline-heap bookkeeping (timer_gen_,
  // timer_refs_) carries over, since stale heap entries may still name the
  // block; the engine state and the undo log's chunk-slot vector carry over
  // as reusable storage.
  void start(ThreadId id, std::string name, int priority,
             std::function<void()> body, std::size_t stack_size);

  Scheduler* sched_;
  ThreadId id_ = 0;
  std::string name_;
  int priority_ = kNormPriority;
  ThreadState state_ = ThreadState::kNew;

  std::function<void()> body_;
  std::optional<Stack> stack_;
  ucontext_t context_;  // written by getcontext at spawn

  int quantum_left_ = 0;
  std::uint64_t sleep_deadline_ = 0;
  // Invalidation stamp for the scheduler's deadline heap: any wakeup bumps
  // it, turning the thread's pending timer entry (sleep deadline or timed-
  // block timeout) into a stale record the heap discards lazily.  Never
  // reset, so a recycled block cannot revive a stale entry.
  std::uint64_t timer_gen_ = 0;
  // Deadline-heap entries (live or stale) that name this block; a block is
  // only freed once none does.
  std::uint32_t timer_refs_ = 0;
  // Index of this thread's entry in the scheduler's live-thread table.
  std::size_t live_slot_ = 0;
  QueueNode queue_node_;             // intrusive linkage (ready/wait queues)
  void* asan_fake_stack_ = nullptr;  // ASan fiber bookkeeping (see scheduler.cpp)
  void* tsan_fiber_ = nullptr;       // TSan fiber handle (see scheduler.cpp)
  WaitQueue* blocked_on_ = nullptr;  // queue currently parked in, if any
  WaitQueue joiners_;                // threads join()ing on this one
  std::exception_ptr uncaught_;

  ThreadStats stats_;
};

// Defined here (not in wait_queue.hpp) because it walks the intrusive links
// embedded in VThread.  Visits levels best-first via the occupancy bitmap,
// FIFO within each level.
template <typename F>
void WaitQueue::for_each(F&& f) const {
  std::uint64_t bits = occupied_;
  while (bits != 0) {
    const int b = std::bit_width(bits) - 1;
    bits &= ~(std::uint64_t{1} << b);
    for (VThread* t = lists_[b].head; t != nullptr; t = t->queue_node_.next) {
      f(t);
    }
  }
}

}  // namespace rvk::rt
