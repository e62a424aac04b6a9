#include "rt/domain.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"

namespace rvk::rt {

namespace {
thread_local Domain* g_current_domain = nullptr;

// Scoped TLS pin: with_domain and the run loops may unwind on a test
// assertion, and the TLS must not leak a dead shard past that.
class DomainScope {
 public:
  explicit DomainScope(Domain* d) : prev_(g_current_domain) {
    g_current_domain = d;
  }
  ~DomainScope() { g_current_domain = prev_; }
  DomainScope(const DomainScope&) = delete;
  DomainScope& operator=(const DomainScope&) = delete;

 private:
  Domain* prev_;
};
}  // namespace

Domain* current_domain() { return g_current_domain; }

// Thread-id stride between shards: shard d's ids start at 1 + d * stride,
// keeping ids process-unique (lock words embed them) while shard 0 keeps
// the classic 1,2,3,... numbering.
constexpr std::uint32_t kThreadIdStride = 1u << 20;

// ---------------------------------------------------------------------------
// Domain

Domain::Domain(DomainSet* set, std::uint16_t id, std::size_t senders,
               SchedulerConfig cfg)
    : set_(set),
      id_(id),
      inbox_(std::make_unique<Mailbox[]>(senders)),
      senders_(senders) {
  // The set's run loops own stall handling — a stalled shard may simply be
  // waiting for a message from a peer, which is not a process-fatal event.
  cfg.on_stall = SchedulerConfig::OnStall::kReturn;
  sched_ = std::make_unique<Scheduler>(cfg, this);
}

Domain::~Domain() = default;

void Domain::post(const Message& m) {
  RVK_CHECK_MSG(m.from < senders_, "message from an impossible shard id");
  // Counted before the push: from the receiving shard's point of view the
  // message exists the instant it becomes poppable, and the termination
  // handshake must already see it then.
  inbound_work_.fetch_add(1, std::memory_order_acq_rel);
  Mailbox& ring = inbox_[m.from];
  if (!ring.try_push(m)) [[unlikely]] {
    // Ring momentarily full.  The sender must be a vthread: it yields, and
    // its scheduler returns to the set loop, so the receiver gets to drain
    // (under kCooperative on this very OS thread; under kOsThreads it
    // drains independently) and its own shard keeps draining too.  Space
    // always opens up.
    Scheduler* s = current_scheduler();
    RVK_CHECK_MSG(s != nullptr && s->current_thread() != nullptr,
                  "mailbox full and the sender cannot yield (not a vthread)");
    do {
      s->request_return();
      s->yield_now();
    } while (!ring.try_push(m));
  }
  set_->poke();
}

std::size_t Domain::drain() {
  std::size_t popped = 0;
  Message m;
  for (std::size_t s = 0; s < senders_; ++s) {
    // The pending_n_ guard keeps handle_message's deferred-work store a
    // plain array write — a full pending list leaves messages in the ring
    // for the next drain instead of allocating.
    while (pending_n_ < kMaxPending && inbox_[s].try_pop(m)) {
      handle_message(m);
      ++popped;
    }
  }
  return popped;
}

void Domain::handle_message(const Message& m) {
  if (m.kind == Message::Kind::kRunSection) {
    // Spawning a helper allocates, which this handler must not.  Park for
    // service_pending(); capacity was checked by drain().
    pending_[pending_n_++] = m;
    return;
  }
  // kSectionDone: the remote section finished; its results (and
  // failed/error) were published by the ring's release/acquire pair.
  // `done` is only ever written here — on the requester's own shard — so
  // the requester's re-check after wakeup is single-shard code.
  // The requester gets the processor at the next dispatch (hand-off).
  RemoteCall* call = m.call;
  call->done = true;
  sched_->wake_specific(remote_waiters_, call->requester,
                        Scheduler::Placement::kHandOff);
  finish_inbound();
}

void Domain::service_pending() {
  const std::size_t n = pending_n_;
  pending_n_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Hand-off: the helper runs at the next dispatch, ahead of the shard's
    // runnable threads, as the section would have run inline on one shard.
    RemoteCall* call = pending_[i].call;
    sched_->spawn(call->name, call->priority,
                  [this, call] { run_remote_section(call); },
                  Scheduler::Placement::kHandOff);
    // inbound_work_ stays raised until the helper completes: the shard is
    // not idle while the shipped body still has to run.
  }
}

void Domain::run_remote_section(RemoteCall* call) {
  try {
    call->body();
  } catch (const std::exception& e) {
    call->failed = true;
    std::strncpy(call->error, e.what(), sizeof(call->error) - 1);
  } catch (...) {
    call->failed = true;
    std::strncpy(call->error, "remote section failed",
                 sizeof(call->error) - 1);
  }
  call->body = nullptr;  // release captures before the requester resumes
  Message done;
  done.kind = Message::Kind::kSectionDone;
  done.from = id_;
  done.call = call;
  set_->domain(call->from).post(done);
  finish_inbound();
}

bool Domain::has_inbox_data() const {
  if (pending_n_ > 0) return true;
  for (std::size_t s = 0; s < senders_; ++s) {
    if (!inbox_[s].empty()) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// DomainSet

std::size_t DomainSet::env_shards() {
  const char* v = std::getenv("RVK_SHARDS");
  if (v == nullptr || *v == '\0') return 1;
  long n = std::strtol(v, nullptr, 10);
  if (n < 1) n = 1;
  if (n > static_cast<long>(Domain::kMaxShards)) {
    n = static_cast<long>(Domain::kMaxShards);
  }
  return static_cast<std::size_t>(n);
}

DomainSet::DomainSet() : DomainSet(Config{}) {}

DomainSet::DomainSet(Config cfg) : cfg_(cfg) {
  RVK_CHECK_MSG(cfg_.shards >= 1 && cfg_.shards <= Domain::kMaxShards,
                "shard count out of range");
  states_.assign(cfg_.shards, ShardState::kBusy);
  domains_.reserve(cfg_.shards);
  for (std::size_t d = 0; d < cfg_.shards; ++d) {
    SchedulerConfig sc = cfg_.sched;
    // Process-unique thread ids (lock words embed them); shard 0 keeps the
    // classic numbering so RVK_SHARDS=1 is bit-for-bit today's runtime.
    sc.first_thread_id = 1 + static_cast<std::uint32_t>(d) * kThreadIdStride;
    domains_.push_back(std::make_unique<Domain>(
        this, static_cast<std::uint16_t>(d), cfg_.shards, sc));
  }
}

DomainSet::~DomainSet() {
  RVK_CHECK_MSG(threads_.empty(),
                "DomainSet destroyed while started — call join() first");
}

void DomainSet::with_domain(std::size_t i,
                            const std::function<void(Domain&)>& fn) {
  RVK_CHECK_MSG(!started_, "with_domain while OS-thread shards are running");
  DomainScope scope(domains_[i].get());
  fn(*domains_[i]);
}

void DomainSet::run(const std::function<void(Domain&)>& setup,
                    const std::function<void(Domain&)>& teardown) {
  RVK_CHECK_MSG(cfg_.mode == Mode::kCooperative,
                "run() is the cooperative entry point; use start()/join()");
  for (auto& d : domains_) {
    DomainScope scope(d.get());
    if (setup) setup(*d);
  }
  while (true) {
    bool progress = false;
    for (auto& d : domains_) {
      DomainScope scope(d.get());
      const std::size_t handled = d->drain_and_service();
      const std::uint64_t before = d->sched().dispatches();
      if (d->sched().live_count() > 0) d->sched().run();
      progress |= handled > 0 || d->sched().dispatches() != before;
    }
    bool any_live = false;
    bool any_inbound = false;
    for (auto& d : domains_) {
      any_live |= d->sched().live_count() > 0;
      any_inbound |= d->inbound_work() > 0;
    }
    if (!any_live && !any_inbound) break;
    if (!progress) {
      deadlocked_ = true;
      std::fprintf(stderr, "DomainSet: cross-shard deadlock\n");
      for (auto& d : domains_) {
        std::fprintf(stderr, " shard %u:\n", d->id());
        d->sched().dump_threads();
      }
      RVK_CHECK_MSG(false, "cross-shard deadlock: no shard can progress");
    }
  }
  for (auto& d : domains_) {
    DomainScope scope(d.get());
    if (teardown) teardown(*d);
  }
}

void DomainSet::start(const std::function<void(Domain&)>& setup,
                      const std::function<void(Domain&)>& teardown) {
  RVK_CHECK_MSG(cfg_.mode == Mode::kOsThreads,
                "start() is the OS-thread entry point; use run()");
  RVK_CHECK_MSG(!started_, "DomainSet already started");
  shutdown_ = false;
  deadlocked_ = false;
  states_.assign(domains_.size(), ShardState::kBusy);
  started_ = true;
  threads_.reserve(domains_.size());
  for (auto& d : domains_) {
    threads_.emplace_back([this, dp = d.get(), setup, teardown] {
      thread_main(*dp, setup, teardown);
    });
  }
}

void DomainSet::thread_main(Domain& d,
                            const std::function<void(Domain&)>& setup,
                            const std::function<void(Domain&)>& teardown) {
  DomainScope scope(&d);
  try {
    shard_loop(d, setup, teardown);
  } catch (...) {
    // Stash the failure for join() and release every peer: with this shard
    // dead, whatever they are waiting on may never arrive.
    std::lock_guard<std::mutex> lk(mu_);
    if (!first_error_) first_error_ = std::current_exception();
    shutdown_ = true;
    cv_.notify_all();
  }
}

void DomainSet::shard_loop(Domain& d,
                           const std::function<void(Domain&)>& setup,
                           const std::function<void(Domain&)>& teardown) {
  if (setup) setup(d);
  while (true) {
    const std::size_t handled = d.drain_and_service();
    if (d.sched().live_count() > 0) {
      const std::uint64_t before = d.sched().dispatches();
      d.sched().run();
      if (handled > 0 || d.sched().dispatches() != before) continue;
      // run() returned without dispatching: every local vthread is blocked
      // (presumably on remote work) and nothing arrived — park below.
    } else if (handled > 0) {
      continue;
    }
    std::unique_lock<std::mutex> lk(mu_);
    if (d.has_inbox_data()) continue;  // a producer raced our empty check
    states_[d.id()] = d.sched().live_count() > 0 ? ShardState::kStalled
                                                 : ShardState::kIdle;
    bool all_parked = true;
    bool any_stalled = false;
    for (const ShardState s : states_) {
      all_parked &= s != ShardState::kBusy;
      any_stalled |= s == ShardState::kStalled;
    }
    if (all_parked && total_inbound() == 0) {
      // Global quiescence: every shard parked, nothing in flight.  With a
      // stalled shard that is a *distributed* deadlock — no message will
      // ever unblock it.
      shutdown_ = true;
      deadlocked_ = any_stalled;
      cv_.notify_all();
      break;
    }
    cv_.wait(lk, [&] { return shutdown_ || d.has_inbox_data(); });
    if (shutdown_) break;
    states_[d.id()] = ShardState::kBusy;
  }
  if (teardown) teardown(d);
}

void DomainSet::join() {
  RVK_CHECK_MSG(started_, "join() without start()");
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  started_ = false;
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
  if (deadlocked_) {
    std::fprintf(stderr, "DomainSet: cross-shard deadlock\n");
    for (auto& d : domains_) {
      std::fprintf(stderr, " shard %u:\n", d->id());
      d->sched().dump_threads();
    }
    RVK_CHECK_MSG(false, "cross-shard deadlock among OS-thread shards");
  }
}

void DomainSet::poke() {
  // started_ is written only while no shard threads exist (start() before
  // creating them, join() after joining them), so this unsynchronized read
  // is ordered by thread creation/join.
  if (!started_) return;  // cooperative loops drain explicitly
  // Only the notify: a shard's state is written by its own thread alone.
  // The receiver may already have drained this message and parked, so
  // marking it busy here could leave a parked shard reading kBusy, and the
  // set would never see global quiescence.  The message's inbound_work
  // count keeps termination from firing while it is in flight.
  std::lock_guard<std::mutex> lk(mu_);
  cv_.notify_all();
}

std::uint64_t DomainSet::total_inbound() const {
  std::uint64_t sum = 0;
  for (const auto& d : domains_) sum += d->inbound_work();
  return sum;
}

void DomainSet::remote_call(std::uint16_t target, int priority,
                            const char* name, std::function<void()> body) {
  RVK_CHECK_MSG(target < size(), "remote_call: no such shard");
  Domain* self = g_current_domain;
  RVK_CHECK_MSG(self != nullptr && self->set() == this,
                "remote_call outside this set's shards");
  if (target == self->id()) {
    // Same shard: a remote call degenerates to a plain call — this is the
    // RVK_SHARDS=1 identity path.
    body();
    return;
  }
  Scheduler* sched = current_scheduler();
  RVK_CHECK_MSG(sched == &self->sched() && sched->current_thread() != nullptr,
                "remote_call must run in a green thread of its shard");
  VThread* me = sched->current_thread();
  RVK_CHECK_MSG(me->sync_depth == 0 && !me->lazy_frame,
                "remote_call while holding a synchronized section: "
                "cross-shard lock nesting is forbidden (deadlock shape)");
  RemoteCall call;
  call.body = std::move(body);
  call.name = name;
  call.priority = priority;
  call.from = self->id();
  call.requester = me;
  Message m;
  m.kind = Message::Kind::kRunSection;
  m.from = self->id();
  m.call = &call;
  domain(target).post(m);
  // done flips on this shard (our drain), never concurrently with us; an
  // interrupt just re-checks and re-parks.
  while (!call.done) sched->block_current_on(self->remote_waiters());
  if (call.failed) throw std::runtime_error(call.error);
}

}  // namespace rvk::rt
