// Exhaustive exploration of the abortable-acquisition races (DESIGN.md
// §14): cancellation vs §5.6 barging, cancellation vs rollback-reservation
// handoff, timeout vs revocation of the holder, and a seeded-random mixed
// timeout/cancel churn suite.  The
// acceptance pair at the bottom injects deliberately broken cancel-dequeue
// variants (a park that skips transit accounting; an abandon that drops the
// consumed handoff) and demonstrates both are caught — and that their
// archived traces replay byte-for-byte to the identical failure.
//
// Same construction rules as explore_test.cpp: scenarios are deterministic
// functions of the dispatch-decision sequence, shared state lives in
// ScenarioContext-retained objects, and mutual-exclusion probes live in the
// HEAP so revoked executions roll their occupancy back.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "core/revocable_monitor.hpp"
#include "explore/explorer.hpp"
#include "heap/heap.hpp"
#include "monitor/monitor.hpp"
#include "rt/scheduler.hpp"

namespace rvk::explore {
namespace {

struct Shared {
  heap::Heap heap;
  heap::HeapObject* probe = nullptr;
  int done = 0;  // bumped OUTSIDE sections: not undone by rollback
  rt::VThread* workers[3] = {nullptr, nullptr, nullptr};
};

void enter_probe(rt::Scheduler& s, heap::HeapObject* o, int slot) {
  if (o->get<int>(slot) != 0) {
    throw std::runtime_error("mutual exclusion violated on probe slot " +
                             std::to_string(slot));
  }
  o->set<int>(slot, static_cast<int>(s.current_thread()->id()));
}

void exit_probe(heap::HeapObject* o, int slot) { o->set<int>(slot, 0); }

void expect_done(ScenarioContext& ctx, Shared* st, int expected) {
  ctx.after_run([st, expected] {
    if (st->done != expected) {
      throw std::runtime_error("only " + std::to_string(st->done) + " of " +
                               std::to_string(expected) +
                               " threads completed");
    }
  });
}

// Abortable workers must not leak a cancel flag into their next phase (or a
// later schedule's reuse of the thread body).
void finish_abortable(rt::Scheduler& s) {
  monitor::MonitorBase::clear_cancel(s.current_thread());
}

// ---------------------------------------------------------------------------
// Scenario A — cancel vs barge (§5.6 × §14).  Revocation is disabled, so
// every release is an ORDINARY (barging) release: B can slip past W at any
// explored point while C cancels W around the very same wakeups.  The
// abandon path's re-forwarded handoff must never strand B, and the
// cancelled waiter must never keep a grant it consumed.
void cancel_vs_barge(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  core::RevocableMonitor* m = e.make_monitor("m");
  Shared* st = ctx.make<Shared>();
  st->probe = st->heap.alloc("probe", 1);

  s.spawn("L", 2, [&s, &e, m, st] {
    e.synchronized(*m, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  const rt::ThreadId w = s.spawn("W", 4, [&s, &e, m, st] {
    (void)e.try_synchronized(*m, 40, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    finish_abortable(s);
    ++st->done;
  })->id();
  s.spawn("B", 5, [&s, &e, m, st] {
    e.synchronized(*m, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  s.spawn("C", 6, [&s, w, st] {
    s.yield_point();
    // W may have finished (cancelling it then had no effect).
    if (rt::VThread* t = s.find(w)) monitor::MonitorBase::cancel(t);
    ++st->done;
  });
  expect_done(ctx, st, 4);
}

// ---------------------------------------------------------------------------
// Scenario B — cancel vs reservation.  W's high-priority contention revokes
// L; L's rollback release RESERVES the monitor for W (§4).  C's cancel races
// that handoff at every explored point: it must either let W take the grant
// (cancel observed only after acquisition) or surrender-and-re-handoff
// atomically — never both, never neither.  The registry's "never cancelled
// AND reserved" invariant is checked after every step.
void cancel_vs_reservation(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  core::RevocableMonitor* m = e.make_monitor("m");
  Shared* st = ctx.make<Shared>();
  st->probe = st->heap.alloc("probe", 1);

  s.spawn("L", 2, [&s, &e, m, st] {
    e.synchronized(*m, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  const rt::ThreadId w = s.spawn("W", 8, [&s, &e, m, st] {
    (void)e.try_synchronized(*m, 60, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    finish_abortable(s);
    ++st->done;
  })->id();
  s.spawn("C", 9, [&s, w, st] {
    s.yield_point();
    // W may have finished (cancelling it then had no effect).
    if (rt::VThread* t = s.find(w)) monitor::MonitorBase::cancel(t);
    ++st->done;
  });
  expect_done(ctx, st, 3);
}

// ---------------------------------------------------------------------------
// Scenario C — timeout vs revocation.  W's tight deadline expires while L —
// the holder — is being revoked on H's behalf: the timer can fire before,
// during, and after L's rollback release reserves for H.  A timeout can
// never race a reservation (the reserving handoff disarms the timer;
// MonitorBase::try_enter asserts it), and W's abandon must not disturb the
// reservation H is owed.
void timeout_vs_revocation(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  core::RevocableMonitor* m = e.make_monitor("m");
  Shared* st = ctx.make<Shared>();
  st->probe = st->heap.alloc("probe", 1);

  s.spawn("L", 2, [&s, &e, m, st] {
    e.synchronized(*m, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  s.spawn("W", 5, [&s, &e, m, st] {
    (void)e.try_synchronized(*m, 2, [&] {  // expires in most interleavings
      enter_probe(s, st->probe, 0);
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  s.spawn("H", 8, [&s, &e, m, st] {
    e.synchronized(*m, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  expect_done(ctx, st, 3);
}

// ---------------------------------------------------------------------------
// Scenario D — mixed timeout/cancel churn.  Three workers cycle through two
// monitors with staggered deadlines (a pure tryLock, a tight timeout, a
// generous one) while X cancels each of them once, mid-churn.  No
// randomness inside the scenario — the seeded-random EXPLORER supplies the
// schedule diversity, which is what keeps every trial replayable.
void timeout_cancel_churn(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  core::RevocableMonitor* a = e.make_monitor("a");
  core::RevocableMonitor* b = e.make_monitor("b");
  Shared* st = ctx.make<Shared>();
  st->probe = st->heap.alloc("probe", 2);  // slot 0: a, slot 1: b

  static constexpr std::uint64_t kTicks[3] = {0, 3, 40};
  for (int i = 0; i < 3; ++i) {
    st->workers[i] =
        s.spawn(std::string("w").append(std::to_string(i)), 3 + i,
                [&s, &e, a, b, st, i] {
          for (int r = 0; r < 2; ++r) {
            core::RevocableMonitor* mon = (i + r) % 2 == 0 ? a : b;
            const int slot = (i + r) % 2;
            (void)e.try_synchronized(*mon, kTicks[(i + r) % 3], [&] {
              enter_probe(s, st->probe, slot);
              s.yield_point();
              exit_probe(st->probe, slot);
            });
            finish_abortable(s);
            s.yield_point();
          }
          ++st->done;
        });
  }
  s.spawn("X", 9, [&s, st] {
    for (rt::VThread* w : st->workers) {
      s.yield_point();
      monitor::CancelToken(w).request();  // the public wrapper, exercised
    }
    ++st->done;
  });
  expect_done(ctx, st, 4);
}

std::string diag(const ExploreResult& r) {
  std::ostringstream oss;
  oss << "schedules=" << r.schedules << " decisions=" << r.decisions
      << " checks=" << r.checks << " complete=" << r.complete;
  if (r.failed) {
    oss << "\nfailure: " << r.failure << "\ntrace: " << r.failure_trace;
  }
  return oss.str();
}

// ---------------------------------------------------------------------------
// Exhaustive mode — bound-2, full invariant registry on (the default).

TEST(CancelExploreTest, CancelVsBargeSpaceIsClean) {
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 2;
  o.max_schedules = 60000;
  o.name = "cancel_vs_barge";
  // No revocations: every release is an ordinary §5.6 barging release, so
  // the cancel races pure barging with no reservations to hide behind.
  o.engine.detection = core::DetectionMode::kNone;
  o.engine.deadlock_detection = false;
  const ExploreResult r = explore(cancel_vs_barge, o);
  EXPECT_FALSE(r.failed) << diag(r);
  EXPECT_GE(r.schedules, 50u) << diag(r);
  EXPECT_GT(r.checks, r.schedules) << diag(r);
}

TEST(CancelExploreTest, CancelVsReservationSpaceIsClean) {
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 2;
  o.max_schedules = 60000;
  o.name = "cancel_vs_reservation";
  const ExploreResult r = explore(cancel_vs_reservation, o);
  EXPECT_FALSE(r.failed) << diag(r);
  EXPECT_GE(r.schedules, 50u) << diag(r);
  EXPECT_GT(r.checks, r.schedules) << diag(r);
}

TEST(CancelExploreTest, TimeoutVsRevocationSpaceIsClean) {
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 2;
  o.max_schedules = 60000;
  o.name = "timeout_vs_revocation";
  const ExploreResult r = explore(timeout_vs_revocation, o);
  EXPECT_FALSE(r.failed) << diag(r);
  EXPECT_GE(r.schedules, 50u) << diag(r);
}

// ---------------------------------------------------------------------------
// Random mode — the churn suite, seeded and replayable.

TEST(CancelExploreTest, ChurnSeededTrialsAllGreen) {
  ExploreOptions o;
  o.mode = Mode::kRandom;
  o.trials = 150;
  o.seed = 0xCA11CE;
  o.name = "timeout_cancel_churn";
  const ExploreResult r = explore(timeout_cancel_churn, o);
  EXPECT_FALSE(r.failed) << diag(r);
  EXPECT_EQ(r.schedules, 150u);
}

TEST(CancelExploreTest, ChurnSameSeedIsReproducible) {
  ExploreOptions o;
  o.mode = Mode::kRandom;
  o.trials = 25;
  o.seed = 99;
  o.name = "timeout_cancel_churn_repro";
  const ExploreResult r1 = explore(timeout_cancel_churn, o);
  const ExploreResult r2 = explore(timeout_cancel_churn, o);
  EXPECT_EQ(r1.decisions, r2.decisions);
  EXPECT_EQ(r1.checks, r2.checks);
  EXPECT_FALSE(r1.failed) << diag(r1);
}

// ---------------------------------------------------------------------------
// Fault injection + replay: two deliberately broken cancel-dequeue variants.

// Fault 1 — a park that skips transit accounting.  The §13 quiescence
// predicate counts on every queued thread sitting inside a transit window;
// the registry's in-transit invariant must trip on the first step that sees
// the thread parked.
class NoTransitTryEnter : public core::RevocableMonitor {
 public:
  using core::RevocableMonitor::RevocableMonitor;
  bool try_enter(std::uint64_t ticks) override {
    rt::Scheduler* sched = rt::current_scheduler();
    rt::VThread* t = sched->current_thread();
    if (owner_ == t) {
      ++recursion_;
      return true;
    }
    const std::uint64_t deadline = sched->now() + ticks;
    AbortableScope abortable(t);
    for (;;) {
      if (t->cancel_requested) {
        abandon_acquire(t, /*cancelled=*/true, 0);
        return false;
      }
      if (try_take(t)) return true;
      if (sched->now() >= deadline) {
        abandon_acquire(t, /*cancelled=*/false, 0);
        return false;
      }
      // SEEDED FAULT: parks with no TransitGuard — in_transit undercounts
      // the entry queue for as long as we sleep.
      const bool woken =
          sched->block_current_on_for(entry_queue_, deadline - sched->now());
      if (!woken) {
        abandon_acquire(t, /*cancelled=*/false, 0);
        return false;
      }
    }
  }
};

void broken_transit_dequeue(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  auto* bad = ctx.make<NoTransitTryEnter>("bad", e);
  Shared* st = ctx.make<Shared>();
  st->probe = st->heap.alloc("probe", 1);

  s.spawn("L", 5, [&s, &e, bad, st] {
    e.synchronized(*bad, [&] {
      s.yield_point();
      s.yield_point();
    });
    ++st->done;
  });
  s.spawn("W", 3, [&s, &e, bad, st] {
    (void)e.try_synchronized(*bad, 40, [] {});
    finish_abortable(s);
    ++st->done;
  });
}

ExploreOptions broken_dequeue_opts(const char* name) {
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 2;
  o.name = name;
  // W below L in priority and no revocations: nothing in the schedule can
  // legitimately empty the queue early and let the fault hide.
  o.engine.detection = core::DetectionMode::kNone;
  o.engine.deadlock_detection = false;
  return o;
}

TEST(CancelFaultInjectionTest, MissingTransitAccountingIsCaught) {
  const ExploreResult r =
      explore(broken_transit_dequeue, broken_dequeue_opts("broken_transit"));
  ASSERT_TRUE(r.failed) << diag(r);
  EXPECT_NE(r.failure.find("in_transit"), std::string::npos) << r.failure;
  EXPECT_FALSE(r.failure_trace.empty());

  // Acceptance: the archived trace replays byte-for-byte to the SAME
  // failure.
  const ExploreResult again = replay(broken_transit_dequeue, r.failure_trace,
                                     broken_dequeue_opts("broken_transit"));
  ASSERT_TRUE(again.failed) << diag(again);
  EXPECT_EQ(again.failure, r.failure);
  EXPECT_EQ(again.failure_trace, r.failure_trace);
}

// Fault 2 — an abandon that drops the consumed handoff.  When an ordinary
// release wakes the cancelled waiter W and the cancel lands before W runs,
// a correct abandon re-forwards the wakeup (MonitorBase::abandon_acquire);
// this variant just returns, stranding the next waiter forever — the
// scheduler's stall detector reports the lost wakeup.
class DroppedHandoffTryEnter : public core::RevocableMonitor {
 public:
  using core::RevocableMonitor::RevocableMonitor;
  bool try_enter(std::uint64_t ticks) override {
    rt::Scheduler* sched = rt::current_scheduler();
    rt::VThread* t = sched->current_thread();
    if (owner_ == t) {
      ++recursion_;
      return true;
    }
    const std::uint64_t deadline = sched->now() + ticks;
    AbortableScope abortable(t);
    TransitGuard transit(*this);
    for (;;) {
      if (t->cancel_requested) {
        // SEEDED FAULT: gives up without abandon_acquire — a wakeup this
        // waiter consumed is never re-forwarded to the next one.
        ++stats_.cancels;
        return false;
      }
      if (try_take(t)) return true;
      if (sched->now() >= deadline) {
        abandon_acquire(t, /*cancelled=*/false, 0);
        return false;
      }
      const bool woken =
          sched->block_current_on_for(entry_queue_, deadline - sched->now());
      if (!woken) {
        abandon_acquire(t, /*cancelled=*/false, 0);
        return false;
      }
    }
  }
};

void broken_handoff_dequeue(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  auto* bad = ctx.make<DroppedHandoffTryEnter>("bad", e);
  Shared* st = ctx.make<Shared>();
  st->probe = st->heap.alloc("probe", 1);

  s.spawn("L", 2, [&s, &e, bad, st] {
    e.synchronized(*bad, [&] { s.yield_point(); });
    ++st->done;
  });
  const rt::ThreadId w = s.spawn("W", 6, [&s, &e, bad, st] {
    (void)e.try_synchronized(*bad, 40, [] {});
    finish_abortable(s);
    ++st->done;
  })->id();
  s.spawn("V", 4, [&e, bad, st] {
    e.synchronized(*bad, [] {});
    ++st->done;
  });
  s.spawn("C", 8, [&s, w, st] {
    s.yield_point();
    // W may have finished (cancelling it then had no effect).
    if (rt::VThread* t = s.find(w)) monitor::MonitorBase::cancel(t);
    ++st->done;
  });
  expect_done(ctx, st, 4);
}

TEST(CancelFaultInjectionTest, DroppedHandoffOnCancelIsCaught) {
  const ExploreResult r =
      explore(broken_handoff_dequeue, broken_dequeue_opts("broken_handoff"));
  ASSERT_TRUE(r.failed) << diag(r);
  EXPECT_NE(r.failure.find("lost wakeup"), std::string::npos) << r.failure;
  EXPECT_FALSE(r.failure_trace.empty());

  const ExploreResult again = replay(broken_handoff_dequeue, r.failure_trace,
                                     broken_dequeue_opts("broken_handoff"));
  ASSERT_TRUE(again.failed) << diag(again);
  EXPECT_EQ(again.failure, r.failure);
  EXPECT_EQ(again.failure_trace, r.failure_trace);
}

}  // namespace
}  // namespace rvk::explore
