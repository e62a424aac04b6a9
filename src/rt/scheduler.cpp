#include "rt/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "obs/recorder.hpp"
#include "rt/domain.hpp"

// AddressSanitizer needs to be told about stack switches or its unwinding
// machinery (e.g. __asan_handle_no_return during exception propagation on a
// fiber stack) reports wild stack-buffer overflows — the classic
// google/sanitizers#189.  The annotations are no-ops elsewhere.
#if defined(__SANITIZE_ADDRESS__)
#define RVK_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RVK_ASAN_FIBERS 1
#endif
#endif
#ifdef RVK_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer likewise needs fiber switches announced, or it attributes
// one OS thread's interleaved fiber stacks to a single logical thread and
// reports wild races the moment shards run on real threads (rt/domain.hpp,
// kOsThreads).  Same pairing discipline as the ASan annotations: every
// switch into a fiber names that fiber, every switch back names the
// scheduler's.  No-ops elsewhere.
#if defined(__SANITIZE_THREAD__)
#define RVK_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RVK_TSAN_FIBERS 1
#endif
#endif
#ifdef RVK_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace rvk::rt {

namespace detail {
thread_local Scheduler* g_current_scheduler = nullptr;
thread_local VThread* g_section_vthread = nullptr;
std::atomic<int> g_region_marking{0};
std::atomic<int> g_access_observers{0};
}  // namespace detail

namespace {
// The engine attached on this OS thread outside any shard: where a marked
// read made by host code (no scheduler running, no shard entered) goes.
thread_local EngineLink* t_host_link = nullptr;
}  // namespace

void set_region_marking(bool on) {
  detail::g_region_marking.fetch_add(on ? 1 : -1, std::memory_order_relaxed);
}
bool region_marking() {
  return detail::g_region_marking.load(std::memory_order_relaxed) != 0;
}

VThread* section_vthread() { return detail::g_section_vthread; }

void enter_section(VThread* t) { detail::g_section_vthread = t; }

void exit_section() { detail::g_section_vthread = nullptr; }

EngineLink* acting_engine_link() {
  if (Scheduler* s = detail::g_current_scheduler) return s->engine_link();
  if (Domain* d = current_domain()) return d->sched().engine_link();
  return t_host_link;
}

void Scheduler::forbidden_switch_point(VThread* t, const char* where) {
  if (link_ != nullptr) link_->on_forbidden_switch(t, where);
}

Scheduler* current_scheduler() { return detail::g_current_scheduler; }

VThread* current_vthread() {
  Scheduler* s = detail::g_current_scheduler;
  return s != nullptr ? s->current_thread() : nullptr;
}

// ---------------------------------------------------------------------------
// VThread

void VThread::start(ThreadId id, std::string name, int priority,
                    std::function<void()> body, std::size_t stack_size) {
  RVK_CHECK_MSG(priority >= kMinPriority && priority <= kMaxPriority,
                "thread priority out of Java range [1,10]");
  id_ = id;
  name_ = std::move(name);
  priority_ = priority;
  state_ = ThreadState::kNew;
  body_ = std::move(body);
  stack_.emplace(stack_size);
  quantum_left_ = 0;
  sleep_deadline_ = 0;
  asan_fake_stack_ = nullptr;
  stats_ = ThreadStats{};
  sync_depth = 0;
  lazy_frame = false;
  marks_writes = false;
  undo_log.reset_stats();
  revoke_requested = false;
  revoke_is_deadlock = false;
  revoke_target_frame = 0;
  in_rollback = false;
  section_epoch = 1;
  current_frame_id = 0;
  forbidden_region_depth = 0;
  interrupted = false;
  timed_out = false;
  cancel_requested = false;
  abortable_wait = false;
  reserved_in = nullptr;
  obs = ObsState{};
}

void VThread::entry() {
#ifdef RVK_ASAN_FIBERS
  // First arrival on this fiber's stack: complete the switch the scheduler
  // started, learning the scheduler's (OS thread) stack bounds on the way.
  __sanitizer_finish_switch_fiber(nullptr, &sched_->sched_stack_bottom_,
                                  &sched_->sched_stack_size_);
#endif
  try {
    body_();
  } catch (...) {
    uncaught_ = std::current_exception();
  }
  sched_->finish_current();
}

namespace {
// makecontext passes only ints; split the VThread pointer across two.
void fiber_start(unsigned int hi, unsigned int lo) {
  auto ptr = (static_cast<std::uintptr_t>(hi) << 32) |
             static_cast<std::uintptr_t>(lo);
  reinterpret_cast<VThread*>(ptr)->entry();
  RVK_UNREACHABLE("green thread returned past entry()");
}
}  // namespace

// ---------------------------------------------------------------------------
// Scheduler

Scheduler::Scheduler(SchedulerConfig cfg, Domain* domain)
    : cfg_(cfg),
      ready_(cfg.strict_priority ? WaitQueue::Order::kPriority
                                 : WaitQueue::Order::kFifo),
      domain_(domain) {
  RVK_CHECK(cfg_.quantum > 0);
  // Id 0 means "no thread" (ObjectMeta::writer_tid); never hand it out.
  RVK_CHECK_MSG(cfg_.first_thread_id >= 1, "thread ids start at 1");
  next_id_ = cfg_.first_thread_id;
}

Scheduler::~Scheduler() {
  RVK_CHECK_MSG(!running_, "Scheduler destroyed while running");
  // Give this OS thread's pooled log chunks back to the allocator.  A dead
  // scheduler then leaves no chunk memory behind, and the large frees make
  // glibc consolidate the small blocks its engine freed at teardown here,
  // not inside the next large allocation (typically the next scheduler's
  // set-up).  The stack pool stays: its mappings are not heap memory, and
  // keeping them spares the next scheduler's spawns an mmap.
  log::release_pooled_chunks();
#ifdef RVK_TSAN_FIBERS
  // Fibers of threads that never finished (stalled-test wreckage).
  for (const LiveThread& e : live_) {
    if (e.thread != nullptr && e.thread->tsan_fiber_ != nullptr) {
      __tsan_destroy_fiber(e.thread->tsan_fiber_);
    }
  }
#endif
}

VThread* Scheduler::spawn(std::string name, int priority,
                          std::function<void()> body, Placement where) {
  // A recycled block (DESIGN.md §15) when the free list holds one: no
  // allocation and no zero-fill, only start()'s field stores.
  std::unique_ptr<VThread> block = free_n_ != 0
                                       ? std::move(free_[--free_n_])
                                       : std::make_unique<VThread>(this);
  VThread* t = block.get();
  t->start(next_id_++, std::move(name), priority, std::move(body),
           cfg_.stack_size);
  RVK_CHECK_MSG(getcontext(&t->context_) == 0, "getcontext failed");
  t->context_.uc_stack.ss_sp = t->stack_->base();
  t->context_.uc_stack.ss_size = t->stack_->size();
  t->context_.uc_link = &sched_context_;
  const auto ptr = reinterpret_cast<std::uintptr_t>(t);
  makecontext(&t->context_, reinterpret_cast<void (*)()>(fiber_start), 2,
              static_cast<unsigned int>(ptr >> 32),
              static_cast<unsigned int>(ptr & 0xFFFFFFFFu));
  t->state_ = ThreadState::kRunnable;
#ifdef RVK_TSAN_FIBERS
  t->tsan_fiber_ = __tsan_create_fiber(0);
  __tsan_set_fiber_name(t->tsan_fiber_, t->name().c_str());
#endif
  t->live_slot_ = live_.size();
  live_.push_back(LiveThread{t->id(), std::move(block)});
  enqueue(t, where);
  ++live_count_;
  obs::on_spawn(t);
  return t;
}

Scheduler* Scheduler::current() { return detail::g_current_scheduler; }

VThread* Scheduler::pick_next() {
  // O(1) both ways: round-robin pops the single FIFO bucket; strict priority
  // is one find-first-set over the occupancy bitmap plus a list pop, FIFO
  // within the best level (first-arrived among the highest-priority ones).
  if (!pick_hook_) [[likely]] return ready_.pop_best();

  // Exploration mode: enumerate the decision point for the hook.  The
  // candidate list is sorted by thread id so index i means the same thread
  // in every schedule that reaches an identical decision point — the
  // property record/replay traces depend on.
  if (ready_.empty()) return nullptr;
  pick_candidates_.clear();
  ready_.for_each([this](VThread* t) { pick_candidates_.push_back(t); });
  std::sort(pick_candidates_.begin(), pick_candidates_.end(),
            [](const VThread* a, const VThread* b) { return a->id() < b->id(); });
  VThread* chosen = pick_hook_(pick_candidates_);
  RVK_CHECK_MSG(chosen != nullptr, "pick hook returned no thread");
  bool removed = ready_.remove(chosen);
  RVK_CHECK_MSG(removed, "pick hook chose a thread that is not ready");
  return chosen;
}

void Scheduler::dispatch(VThread* t) {
  RVK_CHECK(t->state_ == ThreadState::kRunnable);
  t->state_ = ThreadState::kRunning;
  t->quantum_left_ = cfg_.quantum;
  ++t->stats_.dispatches;
  ++dispatches_;
  current_ = t;
  obs::on_dispatch(t);
  // Arm the write barrier's in-section cache for the incoming thread (it may
  // have been switched out mid-section).
  detail::g_section_vthread = t->sync_depth > 0 ? t : nullptr;
#ifdef RVK_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&asan_fake_stack_, t->stack_->base(),
                                 t->stack_->size());
#endif
#ifdef RVK_TSAN_FIBERS
  __tsan_switch_to_fiber(t->tsan_fiber_, 0);
#endif
  RVK_CHECK_MSG(swapcontext(&sched_context_, &t->context_) == 0,
                "swapcontext into thread failed");
#ifdef RVK_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(asan_fake_stack_, nullptr, nullptr);
#endif
  detail::g_section_vthread = nullptr;  // scheduler context logs nothing
  current_ = nullptr;
  obs::on_switch_out(t, last_reason_);

  switch (last_reason_) {
    case SwitchReason::kYield:
      t->state_ = ThreadState::kRunnable;
      ready_.push(t);
      break;
    case SwitchReason::kBlock:
    case SwitchReason::kSleep:
      // State and queue membership were set before switching out.
      break;
    case SwitchReason::kFinish:
      t->state_ = ThreadState::kFinished;
      --live_count_;
      wake_all(t->joiners_);
      // run() rethrows the first escaped exception; take it now, before
      // the block can host another thread.
      if (t->uncaught_) uncaught_.push_back(std::exchange(t->uncaught_, {}));
      // Reclaim the dead fiber's execution resources: its stack mapping and
      // its undo-log chunks go back to this OS thread's pools, where the
      // next spawn and the next section take them without a system call,
      // and its write filter is freed.
      // The swapcontext above completed the switch off that stack (and
      // switch_out already tore down its ASan fake stack), so nothing can
      // touch it again: a finished thread is never dispatched.
      t->stack_.reset();
      t->undo_log.release_storage();
      t->write_filter.release_storage();
      t->body_ = nullptr;
#ifdef RVK_TSAN_FIBERS
      // Back on the scheduler fiber (switch_out announced that), so the
      // dead fiber is no longer current and may be destroyed.
      __tsan_destroy_fiber(t->tsan_fiber_);
      t->tsan_fiber_ = nullptr;
#endif
      ++stacks_reclaimed_;
      retire(t);
      break;
  }
}

void Scheduler::retire(VThread* t) {
  // The control block leaves the live table and goes to the free list, or
  // is freed when the list is full.  Memory then stays O(live threads)
  // when open-loop drivers (svc/) and shipped sections spawn one
  // short-lived green thread per request.
  std::unique_ptr<VThread> block = std::move(live_[t->live_slot_].thread);
  // Holes are compacted once they outnumber the live entries: amortised
  // O(1) per finish, and the table keeps its id order.
  if (++live_holes_ > live_count_) {
    std::size_t n = 0;
    for (LiveThread& e : live_) {
      if (e.thread == nullptr) continue;
      e.thread->live_slot_ = n;
      if (&live_[n] != &e) live_[n] = std::move(e);
      ++n;
    }
    live_.resize(n);
    live_holes_ = 0;
  }
  if (free_n_ < kMaxFreeBlocks) {
    free_[free_n_++] = std::move(block);
    return;
  }
  // Freed for good: first drop the (stale) deadline-heap entries that still
  // name it.  Rare — the live population must have shrunk by more than the
  // free list holds, and the thread must have been woken before a timer.
  if (t->timer_refs_ != 0) {
    std::erase_if(timers_, [t](const Timer& tm) { return tm.thread == t; });
    std::make_heap(timers_.begin(), timers_.end(), TimerAfter{});
  }
}

void Scheduler::switch_out(SwitchReason reason) {
  VThread* t = current_;
  RVK_DCHECK(t != nullptr);
  last_reason_ = reason;
#ifdef RVK_ASAN_FIBERS
  // A finishing fiber's fake stack is torn down (nullptr save slot).
  __sanitizer_start_switch_fiber(
      reason == SwitchReason::kFinish ? nullptr : &t->asan_fake_stack_,
      sched_stack_bottom_, sched_stack_size_);
#endif
#ifdef RVK_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_sched_fiber_, 0);
#endif
  RVK_CHECK_MSG(swapcontext(&t->context_, &sched_context_) == 0,
                "swapcontext to scheduler failed");
#ifdef RVK_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(t->asan_fake_stack_, nullptr, nullptr);
#endif
  // Resumed: we are Running again (dispatch set the state).
}

void Scheduler::finish_current() {
  switch_out(SwitchReason::kFinish);
  RVK_UNREACHABLE("finished thread resumed");
}

void Scheduler::yield_now() {
  current_->quantum_left_ = 0;
  yield_point();
}

void Scheduler::sleep_for(std::uint64_t ticks) {
  VThread* t = current_;
  if (t->lazy_frame) [[unlikely]] link_->materialize_lazy_frame(t);
  if (t->forbidden_region_depth != 0) [[unlikely]] {
    forbidden_switch_point(t, "sleep_for");
  }
  if (ticks == 0) {
    yield_now();
    return;
  }
  t->sleep_deadline_ = ticks_ + ticks;
  t->state_ = ThreadState::kSleeping;
  arm_timer(t, t->sleep_deadline_, /*timed_block=*/false);
  switch_out(SwitchReason::kSleep);
  check_revocation();
}

void Scheduler::join(ThreadId id) {
  RVK_CHECK_MSG(id != current_->id(), "thread cannot join itself");
  while (VThread* target = find(id)) block_current_on(target->joiners_);
}

void Scheduler::block_current_on(WaitQueue& q) {
  VThread* t = current_;
  if (t->lazy_frame) [[unlikely]] link_->materialize_lazy_frame(t);
  if (t->forbidden_region_depth != 0) [[unlikely]] {
    forbidden_switch_point(t, "blocking call");
  }
  t->interrupted = false;
  t->timed_out = false;
  t->state_ = ThreadState::kBlocked;
  t->blocked_on_ = &q;
  q.push(t);
  ++t->stats_.blocks;
  switch_out(SwitchReason::kBlock);
  // Woken: the waker (or interrupt) already removed us from the queue.
  RVK_DCHECK(t->blocked_on_ == nullptr);
}

bool Scheduler::block_current_on_for(WaitQueue& q, std::uint64_t ticks) {
  VThread* t = current_;
  t->sleep_deadline_ = ticks_ + ticks;
  arm_timer(t, t->sleep_deadline_, /*timed_block=*/true);
  block_current_on(q);
  // A real wakeup (or interrupt) already disarmed the timer: make_runnable
  // bumped timer_gen_, so the heap entry is stale and gets dropped lazily.
  return !t->timed_out;
}

void Scheduler::make_runnable(VThread* t, Placement where) {
  t->blocked_on_ = nullptr;
  ++t->timer_gen_;  // disarm any pending sleep/timeout deadline
  t->state_ = ThreadState::kRunnable;
  enqueue(t, where);
}

void Scheduler::enqueue(VThread* t, Placement where) {
  if (where == Placement::kHandOff) {
    ready_.push_handoff(t);
  } else {
    ready_.push(t);
  }
}

VThread* Scheduler::wake_best(WaitQueue& q) {
  VThread* t = q.pop_best();
  if (t != nullptr) make_runnable(t);
  return t;
}

void Scheduler::wake_all(WaitQueue& q) {
  while (VThread* t = q.pop_best()) make_runnable(t);
}

bool Scheduler::wake_specific(WaitQueue& q, VThread* t, Placement where) {
  if (!q.remove(t)) return false;
  make_runnable(t, where);
  return true;
}

void Scheduler::interrupt(VThread* t) {
  switch (t->state_) {
    case ThreadState::kBlocked: {
      RVK_CHECK(t->blocked_on_ != nullptr);
      bool removed = t->blocked_on_->remove(t);
      RVK_CHECK_MSG(removed, "blocked thread missing from its wait queue");
      t->interrupted = true;
      make_runnable(t);
      break;
    }
    case ThreadState::kSleeping: {
      t->interrupted = true;
      make_runnable(t);  // bumps timer_gen_, disarming the sleep deadline
      break;
    }
    default:
      // Runnable/Running threads observe flags at their next yield point;
      // nothing to do here.
      break;
  }
}

void Scheduler::attach_engine(EngineLink* link) {
  RVK_CHECK_MSG(link_ == nullptr, "this scheduler already has an engine");
  if (current_domain() == nullptr) {
    RVK_CHECK_MSG(t_host_link == nullptr, "another Engine is already active");
    t_host_link = link;
  }
  link_ = link;
}

void Scheduler::detach_engine() {
  if (t_host_link == link_) t_host_link = nullptr;
  link_ = nullptr;
}

void Scheduler::deliver_revocation() {
  VThread* t = current_;
  RVK_CHECK_MSG(link_ != nullptr,
                "revocation requested but no engine attached");
  // Normally throws the engine's rollback exception; returns without
  // throwing when the request became invalid (e.g. the target frame was
  // pinned non-revocable after the request was posted).
  link_->deliver(t);
  RVK_CHECK_MSG(!t->revoke_requested,
                "engine returned with the request still pending");
}

void Scheduler::arm_timer(VThread* t, std::uint64_t deadline,
                          bool timed_block) {
  timers_.push_back(
      Timer{deadline, timer_seq_++, ++t->timer_gen_, t, timed_block});
  ++t->timer_refs_;
  std::push_heap(timers_.begin(), timers_.end(), TimerAfter{});
}

void Scheduler::fire_due_timers() {
  while (!timers_.empty() && timers_.front().deadline <= ticks_) {
    const Timer tm = timers_.front();
    std::pop_heap(timers_.begin(), timers_.end(), TimerAfter{});
    timers_.pop_back();
    VThread* t = tm.thread;
    --t->timer_refs_;
    if (tm.gen != t->timer_gen_) continue;  // disarmed by an earlier wakeup
    if (tm.timed_block) {
      // Expire a timed block: pull the thread out of its wait queue with
      // timed_out set; block_current_on_for translates that into `false`.
      // A live generation implies the thread is still parked (every wakeup
      // path goes through make_runnable, which bumps the generation).
      RVK_DCHECK(t->state_ == ThreadState::kBlocked);
      RVK_CHECK(t->blocked_on_ != nullptr);
      bool removed = t->blocked_on_->remove(t);
      RVK_CHECK_MSG(removed, "timed-blocked thread missing from its queue");
      t->timed_out = true;
    } else {
      RVK_DCHECK(t->state_ == ThreadState::kSleeping);
    }
    make_runnable(t);
  }
}

std::uint64_t Scheduler::next_timer_deadline() {
  // Discard stale (disarmed) entries on the way to the live minimum; each
  // registration is popped at most once, so this stays amortized O(log n).
  while (!timers_.empty() &&
         timers_.front().gen != timers_.front().thread->timer_gen_) {
    --timers_.front().thread->timer_refs_;
    std::pop_heap(timers_.begin(), timers_.end(), TimerAfter{});
    timers_.pop_back();
  }
  return timers_.empty() ? std::numeric_limits<std::uint64_t>::max()
                         : timers_.front().deadline;
}

void Scheduler::run() {
  RVK_CHECK_MSG(detail::g_current_scheduler == nullptr,
                "nested Scheduler::run on one OS thread");
  detail::g_current_scheduler = this;
  detail::g_section_vthread = nullptr;
  running_ = true;
  stalled_ = false;
#ifdef RVK_TSAN_FIBERS
  tsan_sched_fiber_ = __tsan_get_current_fiber();
#endif

  while (live_count_ > 0) {
    // Shard mailbox drain (rt/domain.hpp): remote work keeps flowing even
    // while local vthreads are runnable (liveness for remote requesters).
    // Scheduler context: it may wake blocked threads and spawn helpers, and
    // it never advances the virtual clock.
    if (domain_ != nullptr) [[unlikely]] domain_->drain_and_service();
    fire_due_timers();
    VThread* next = pick_next();
    if (next == nullptr) {
      const std::uint64_t deadline = next_timer_deadline();
      if (deadline != std::numeric_limits<std::uint64_t>::max()) {
        // Idle: fast-forward the virtual clock to the next wakeup (a sleep
        // or a timed block expiring).
        ticks_ = std::max(ticks_, deadline);
        continue;
      }
      // Every live thread is blocked.  Give the engine (the deadlock
      // breaker) a chance before declaring a stall.
      if (link_ != nullptr && link_->on_stall()) continue;
      stalled_ = true;
      if (cfg_.on_stall == SchedulerConfig::OnStall::kAbort) {
        std::fprintf(stderr, "Scheduler stalled: all threads blocked\n");
        dump_threads();
        std::abort();
      }
      break;
    }
    dispatch(next);
    if (link_ != nullptr) link_->after_dispatch();
    if (return_requested_) [[unlikely]] {
      return_requested_ = false;
      break;
    }
  }

  running_ = false;
  detail::g_current_scheduler = nullptr;
  detail::g_section_vthread = nullptr;

  // Rethrow the first exception that escaped a thread body (surfaces test
  // failures from inside green threads).  Only the first can propagate;
  // others (rare — they require several threads to die in one run) stay
  // queued in finish order and surface on subsequent run() calls.
  if (!uncaught_.empty()) {
    std::exception_ptr e = std::move(uncaught_.front());
    uncaught_.erase(uncaught_.begin());
    std::rethrow_exception(e);
  }
}

bool Scheduler::timer_armed(const VThread* t, bool timed_block) const {
  for (const Timer& tm : timers_) {
    if (tm.thread == t && tm.timed_block == timed_block &&
        tm.gen == t->timer_gen_) {
      return true;
    }
  }
  return false;
}

VThread* Scheduler::find(ThreadId id) const {
  auto it = std::lower_bound(
      live_.begin(), live_.end(), id,
      [](const LiveThread& e, ThreadId v) { return e.id < v; });
  return it != live_.end() && it->id == id ? it->thread.get() : nullptr;
}

std::vector<VThread*> Scheduler::threads() const {
  std::vector<VThread*> out;
  out.reserve(live_count_);
  for (const LiveThread& e : live_) {
    if (e.thread != nullptr) out.push_back(e.thread.get());
  }
  return out;
}

void Scheduler::dump_threads() const {
  static const char* const kStateNames[] = {"new",      "runnable", "running",
                                            "blocked",  "sleeping", "finished"};
  for (VThread* t : threads()) {
    std::fprintf(stderr,
                 "  thread %u '%s' prio=%d state=%s sync_depth=%d "
                 "revoke_requested=%d\n",
                 t->id(), t->name().c_str(), t->priority(),
                 kStateNames[static_cast<int>(t->state())], t->sync_depth,
                 t->revoke_requested ? 1 : 0);
  }
}

}  // namespace rvk::rt
