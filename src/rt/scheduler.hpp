// Quasi-preemptive green-thread scheduler.
//
// Jikes RVM 2.2.1 — the paper's platform — schedules Java threads
// round-robin over green-thread contexts, switching only at compiler-
// inserted yield points (§3.1 note 4, §4: "The Jikes RVM does not include a
// priority scheduler; threads are scheduled in a round-robin fashion").
// This Scheduler reproduces that model exactly, and is the substrate every
// other module runs on:
//
//  * One OS thread runs the scheduler plus all green threads; context
//    switches happen only inside yield_point() / blocking calls, so any code
//    sequence between yield points is atomic with respect to other threads.
//    The revocation engine leans on this: undo-log replay and monitor
//    release during a rollback are a single indivisible step, which is how
//    the paper guarantees "partial results … are reverted before any of the
//    locks are released" (§3.1.2).
//  * The clock is virtual: one tick per yield point executed.  Timed sleeps
//    (the benchmark's random arrival pauses) are measured in ticks, making
//    every experiment replayable.
//  * Revocation requests are *delivered* here: a flagged thread throws the
//    engine's rollback exception from its next yield point, or is yanked
//    from its wait queue (interrupt) if blocked.  Every call up into the
//    engine — delivery, stall and background work, lazy frames — goes
//    through the one EngineLink the engine attaches (rt/engine_link.hpp).
//
// A strict-priority ready-queue mode is provided for the baseline ablations
// (priority inheritance / ceiling need a priority scheduler to be
// meaningful); the paper-faithful default is round-robin.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "rt/engine_link.hpp"
#include "rt/vthread.hpp"
#include "rt/wait_queue.hpp"
#include "support/annotations.hpp"

namespace rvk::rt {

struct SchedulerConfig {
  // Yield points per time slice.  Jikes RVM time slices are tens of
  // milliseconds of real time; in virtual ticks the absolute value only
  // scales how often round-robin rotation happens.
  int quantum = 100;

  // Usable stack bytes per green thread.
  std::size_t stack_size = 256 * 1024;

  // false: paper-faithful round-robin ready queue (priorities influence only
  // monitor queues and revocation decisions).  true: strict-priority ready
  // queue with round-robin within a level (for baseline ablations).
  bool strict_priority = false;

  // What run() does when no thread can make progress (all live threads
  // blocked and the stall hook could not help): abort with a thread dump, or
  // return with stalled() == true so a test can inspect the wreckage.
  enum class OnStall { kAbort, kReturn };
  OnStall on_stall = OnStall::kAbort;

  // First thread id this scheduler hands out.  Lock words embed thread ids,
  // so under sharding (rt/domain.hpp) every shard gets a disjoint id range;
  // the default keeps the classic 1,2,3,... numbering.
  ThreadId first_thread_id = 1;
};

class Domain;

class Scheduler {
 public:
  // `domain`: the shard that owns this scheduler (rt/domain.hpp), whose
  // mailbox the run loop drains before every dispatch; nullptr outside a
  // DomainSet.
  explicit Scheduler(SchedulerConfig cfg = {}, Domain* domain = nullptr);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Where a thread that becomes runnable joins the ready queue.
  enum class Placement : std::uint8_t {
    kTail,     // behind its bucket's runnable threads (round-robin)
    kHandOff,  // ahead of them: a cross-shard message readied it, and it
               // runs at the next dispatch (WaitQueue::push_handoff,
               // DESIGN.md §16)
  };

  // ---- Setup ----

  // Creates a thread; it becomes runnable immediately.  Callable before
  // run() and from inside green threads.  The returned block is valid while
  // the thread lives; once it finishes the block may host a later thread
  // (see VThread), so keep id() for anything after that.
  RVK_MAY_ALLOC VThread* spawn(std::string name, int priority,
                               std::function<void()> body,
                               Placement where = Placement::kTail);

  // Runs until every thread finished, or until a stall (see OnStall), or
  // until the dispatch after a request_return().  Callable again after it
  // returns.
  void run();

  // Makes run() return once the current dispatch ends, with threads still
  // runnable.  A green thread that waits on another shard calls this
  // before it yields, so a cooperative set's loop gets to run that shard.
  RVK_NO_YIELD void request_return() { return_requested_ = true; }

  bool stalled() const { return stalled_; }

  // ---- Identity ----

  // Scheduler driving the current OS thread, or nullptr outside run().
  static Scheduler* current();

  VThread* current_thread() const { return current_; }

  // ---- Virtual time ----

  std::uint64_t now() const { return ticks_; }
  std::uint64_t dispatches() const { return dispatches_; }

  // ---- Green-thread operations (must be called from a green thread) ----

  // The quasi-preemption point: advances the clock, rotates the processor on
  // quantum expiry, and delivers pending revocation requests (may throw the
  // engine's rollback exception).
  RVK_MAY_YIELD RVK_MAY_ALLOC void yield_point() {
    ++ticks_;
    VThread* t = current_;
    RVK_DCHECK(t != nullptr);
    ++t->stats_.yield_points;
    // A lazily-deferred frame must become a real, revocable core::Frame
    // before any switch can let another thread observe this one (§11).
    if (t->lazy_frame) [[unlikely]] link_->materialize_lazy_frame(t);
    if (t->forbidden_region_depth != 0) [[unlikely]] {
      forbidden_switch_point(t, "yield point");
    }
    if (--t->quantum_left_ <= 0) switch_out(SwitchReason::kYield);
    // Exploration probe: runs in green-thread context (so it may throw an
    // invariant-violation exception through the normal thread-body unwinding
    // path) after any switch, before revocation delivery.
    if (step_hook_) [[unlikely]] step_hook_(current_);
    if (current_->revoke_requested) [[unlikely]] deliver_revocation();
  }

  // Unconditionally gives up the processor (still a revocation point).
  RVK_MAY_YIELD RVK_MAY_ALLOC void yield_now();

  // Sleeps for `ticks` virtual ticks.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC void sleep_for(
      std::uint64_t ticks);

  // Blocks until thread `id` finishes; returns at once if it already did.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC void join(ThreadId id);

  // Delivers a pending revocation on the current thread, if any (throws the
  // engine's exception).  Monitors call this after every wakeup.
  RVK_MAY_YIELD void check_revocation() {
    if (current_->revoke_requested) [[unlikely]] deliver_revocation();
  }

  // ---- Blocking primitives (for monitor/) ----

  // Parks the current thread on `q`; returns when some other thread wakes it
  // (or interrupt() yanks it out — check current_thread()->interrupted).
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC void block_current_on(
      WaitQueue& q);

  // Like block_current_on, but gives up after `ticks` virtual ticks.
  // Returns true if woken by another thread, false on timeout (the thread
  // was removed from `q`; current_thread()->timed_out is also set).
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC bool block_current_on_for(
      WaitQueue& q, std::uint64_t ticks);

  // Marks a thread the caller popped off a WaitQueue as runnable again.
  // NO_YIELD: monitor handoff calls this inside its forbidden region.
  RVK_NO_YIELD void make_runnable(VThread* t,
                                  Placement where = Placement::kTail);

  // Wakes the best-priority thread parked on `q`; returns it (nullptr if the
  // queue was empty).
  RVK_NO_YIELD VThread* wake_best(WaitQueue& q);

  // Wakes every thread parked on `q`.
  RVK_NO_YIELD void wake_all(WaitQueue& q);

  // Wakes `t` if it is parked on `q`; returns false if it was not there.
  RVK_NO_YIELD bool wake_specific(WaitQueue& q, VThread* t,
                                  Placement where = Placement::kTail);

  // Asynchronous wakeup: if `t` is blocked or sleeping, removes it from its
  // queue / the sleep set, sets t->interrupted, and makes it runnable.  Used
  // to deliver revocation requests to blocked victims.
  // NO_YIELD: monitor cancellation calls this inside its forbidden region.
  RVK_NO_YIELD void interrupt(VThread* t);

  // ---- Engine link (rt/engine_link.hpp) ----

  // Attaches the scheduler's one engine (core::Engine's constructor).  When
  // no shard is entered, `link` also becomes this OS thread's engine for
  // marked reads outside any green thread (acting_engine_link); there may
  // be only one such engine per OS thread.
  void attach_engine(EngineLink* link);
  // Detaches it again (core::Engine's destructor).
  void detach_engine();
  // The attached engine, or nullptr.
  EngineLink* engine_link() const { return link_; }

  // ---- Exploration hooks (explore/) ----

  // When installed, pick_next() defers the dispatch choice to the hook: it
  // receives every ready thread (sorted by id — a schedule-independent,
  // deterministic enumeration of the decision point) and must return one of
  // them.  Runs in scheduler context; it must not block, yield, or throw.
  // Because context switches happen only at yield points, the sequence of
  // these choices fully determines the interleaving — this is the substrate
  // the schedule-exploration harness drives (DESIGN.md §9).
  using PickHook = std::function<VThread*(const std::vector<VThread*>&)>;
  void set_pick_hook(PickHook f) { pick_hook_ = std::move(f); }

  // Called from every yield point in green-thread context, after any
  // quantum switch and before revocation delivery.  Unlike the pick hook it
  // may throw — the exploration harness uses that to fail a schedule from
  // the checked thread, unwinding through the engine's normal commit/abort
  // handling instead of tearing through the scheduler loop.
  void set_step_hook(std::function<void(VThread*)> f) {
    step_hook_ = std::move(f);
  }

  // ---- Introspection ----

  const SchedulerConfig& config() const { return cfg_; }

  // The live threads, in id (= spawn) order.
  std::vector<VThread*> threads() const;

  // The live thread with this id, or nullptr once it finished (ids are
  // never reused).  O(log live).
  VThread* find(ThreadId id) const;

  std::size_t live_count() const { return live_count_; }

  // Finished threads whose resources were reclaimed.  Each thread's stack,
  // undo-log chunks, write filter and control block are recycled the moment
  // it finishes, so resident memory tracks the LIVE population even when a
  // run spawns short-lived threads by the hundred thousand — the open-loop
  // driver's regime.
  std::uint64_t stacks_reclaimed() const { return stacks_reclaimed_; }

  // Finished control blocks kept for reuse, at most this many; a finish
  // beyond the bound frees its block.
  static constexpr std::size_t kMaxFreeBlocks = 64;

  // Control blocks this scheduler holds: one per live thread plus the free
  // list, so never more than live_count() + kMaxFreeBlocks.
  std::size_t control_blocks() const { return live_count_ + free_n_; }

  // True if the deadline heap still holds a live (non-stale-generation)
  // timer for `t` of the given flavour.  O(timers) scan — invariant-checking
  // introspection only, never on a runtime path.
  bool timer_armed(const VThread* t, bool timed_block) const;

  // Writes a one-line-per-thread dump to stderr (stall diagnostics).
  void dump_threads() const;

 private:
  friend class VThread;

  // Out-of-line slow path of the forbidden-region check: reports `where`
  // to the engine link, whose analyzer records it (no-op without one).
  void forbidden_switch_point(VThread* t, const char* where);

  VThread* pick_next();
  // Links a runnable thread into the ready queue where `where` says.
  RVK_NO_YIELD void enqueue(VThread* t, Placement where);
  // MAY_ALLOC: the obs recorder interns a thread's name at its first
  // dispatch (legal: scheduler context is never a forbidden region).
  RVK_MAY_YIELD RVK_MAY_ALLOC void dispatch(VThread* t);
  // kFinish tail of dispatch: moves `t`'s block from the live table to the
  // free list (or frees it).
  void retire(VThread* t);
  RVK_MAY_YIELD RVK_MAY_ALLOC void switch_out(SwitchReason reason);
  [[noreturn]] RVK_MAY_YIELD RVK_MAY_ALLOC void finish_current();
  void arm_timer(VThread* t, std::uint64_t deadline, bool timed_block);
  void fire_due_timers();
  std::uint64_t next_timer_deadline();
  RVK_MAY_YIELD void deliver_revocation();

  // Deadline min-heap entry: a sleeping thread's wakeup or a timed block's
  // timeout.  Entries are validated lazily against the thread's timer_gen_
  // (any wakeup bumps it), so cancellation is O(1) and the virtual-clock
  // tick pays O(log timers) only when a deadline actually fires — never the
  // old O(threads) sweep.
  struct Timer {
    std::uint64_t deadline;
    std::uint64_t seq;  // registration order: FIFO among equal deadlines
    std::uint64_t gen;  // matches thread->timer_gen_ while still armed
    VThread* thread;
    bool timed_block;  // true: timeout of a block_current_on_for park
  };
  struct TimerAfter {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.deadline != b.deadline ? a.deadline > b.deadline
                                      : a.seq > b.seq;
    }
  };

  // Live-table entry.  A finished thread leaves a hole (null `thread`, its
  // id kept so the table stays sorted for find()) until the next compaction.
  struct LiveThread {
    ThreadId id;
    std::unique_ptr<VThread> thread;
  };

  SchedulerConfig cfg_;
  std::vector<LiveThread> live_;  // id order; holes compacted in retire()
  std::size_t live_holes_ = 0;
  // Free list of finished blocks, LIFO like the stack pool (rt/stack.cpp).
  std::array<std::unique_ptr<VThread>, kMaxFreeBlocks> free_;
  std::size_t free_n_ = 0;
  // Exceptions that escaped thread bodies, in finish order; run() rethrows
  // the first.
  std::vector<std::exception_ptr> uncaught_;
  // Ready queue: priority-bucketed in strict mode, single FIFO bucket in the
  // paper-faithful round-robin mode; O(1) either way.
  WaitQueue ready_;
  std::vector<Timer> timers_;  // min-heap ordered by TimerAfter
  std::uint64_t timer_seq_ = 0;
  VThread* current_ = nullptr;
  ucontext_t sched_context_{};
  SwitchReason last_reason_ = SwitchReason::kYield;
  // ASan fiber bookkeeping (populated only under AddressSanitizer).
  void* asan_fake_stack_ = nullptr;
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
  // TSan fiber bookkeeping (populated only under ThreadSanitizer): the OS
  // thread's own fiber, switched back to around every dispatch.
  void* tsan_sched_fiber_ = nullptr;
  std::uint64_t ticks_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t stacks_reclaimed_ = 0;
  std::size_t live_count_ = 0;
  bool running_ = false;
  bool stalled_ = false;
  bool return_requested_ = false;
  ThreadId next_id_ = 1;

  EngineLink* link_ = nullptr;
  Domain* domain_;
  PickHook pick_hook_;
  std::function<void(VThread*)> step_hook_;
  std::vector<VThread*> pick_candidates_;  // scratch, reused across dispatches
};

// Fast accessors for barrier code: the thread currently executing on this OS
// thread's scheduler, or nullptr when no scheduler is running (plain host
// code, unit tests without a scheduler).
namespace detail {
extern thread_local Scheduler* g_current_scheduler;
// The thread currently executing on this OS thread *if* it is inside a
// synchronized section, else nullptr.  This is the write barrier's entire
// fast-path state (one TLS load + one branch; DESIGN.md §11): maintained by
// rt::enter_section/exit_section at sync-depth 0↔1 transitions and by
// dispatch()/run() around every fiber switch.
extern thread_local VThread* g_section_vthread;
// Live revocation-safety analyzers (analysis/), each engine's own.  While
// it is zero the guards below do nothing and forbidden_region_depth stays
// zero, so the yield-point check never takes its branch — the
// zero-overhead-when-off contract of RVK_ANALYZE.  Process-wide because
// threads no engine registered still release plain monitors inside marked
// regions.
extern std::atomic<int> g_region_marking;
}  // namespace detail

// In-section cache accessors (write-barrier fast path).  Out-of-line for the
// same TLS/sanitizer reason as current_scheduler() below.
VThread* section_vthread();
// Called by the engine when the current thread's sync_depth leaves/returns
// to zero (and by heap tests that simulate section entry by hand).
void enter_section(VThread* t);
void exit_section();

// Counts an analyzer in (true) or out (false) of forbidden-region marking;
// region_marking() is true while any analyzer lives.
void set_region_marking(bool on);
bool region_marking();

// RAII marker for code that must not contain a yield point or blocking call:
// the engine's commit/abort sequences and monitor release paths, whose
// atomicity the rollback protocol relies on (§3.1.2; CLAUDE.md invariant).
// Active only while some analyzer has region marking enabled.
class ForbiddenRegionGuard {
 public:
  explicit ForbiddenRegionGuard(VThread* t)
      : t_(detail::g_region_marking.load(std::memory_order_relaxed) != 0
               ? t
               : nullptr) {
    if (t_ != nullptr) ++t_->forbidden_region_depth;
  }
  ~ForbiddenRegionGuard() {
    if (t_ != nullptr) --t_->forbidden_region_depth;
  }
  ForbiddenRegionGuard(const ForbiddenRegionGuard&) = delete;
  ForbiddenRegionGuard& operator=(const ForbiddenRegionGuard&) = delete;

 private:
  VThread* t_;
};

// Out-of-line on purpose: GCC may cache the computed TLS address across a
// ucontext fiber switch when these are inlined into long-running frames,
// which UBSan then flags (and which would break under any future M:N
// mapping of schedulers to OS threads).
Scheduler* current_scheduler();
VThread* current_vthread();

// Convenience wrappers used throughout workloads.
RVK_MAY_YIELD RVK_MAY_ALLOC inline void yield_point() {
  Scheduler* s = detail::g_current_scheduler;
  if (s != nullptr) s->yield_point();
}

}  // namespace rvk::rt
