// Dispatch semantics pinned against the O(1) run-queue machinery: strict
// priority, FIFO within a level, quantum rotation, revocation delivery
// order, and the deadline heap's lazy-invalidation behaviour.  All
// assertions are on the virtual clock (deterministic), never wall time.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fake_engine_link.hpp"
#include "rt/scheduler.hpp"

namespace rvk::rt {
namespace {

TEST(DispatchTest, StrictPriorityRunsStrictlyHigherFirst) {
  SchedulerConfig cfg;
  cfg.quantum = 1;
  cfg.strict_priority = true;
  Scheduler s(cfg);
  std::vector<int> order;
  for (int prio : {3, 9, 1, 5, 7}) {
    s.spawn(std::string("p").append(std::to_string(prio)), prio,
            [&s, &order, prio] {
      for (int i = 0; i < 4; ++i) s.yield_point();
      order.push_back(prio);
    });
  }
  s.run();
  // With strict priority and equal work, completion order is descending
  // priority regardless of spawn order.
  EXPECT_EQ(order, (std::vector<int>{9, 7, 5, 3, 1}));
}

TEST(DispatchTest, StrictPriorityLateArriverPreemptsAtNextDispatch) {
  SchedulerConfig cfg;
  cfg.quantum = 1;
  cfg.strict_priority = true;
  Scheduler s(cfg);
  std::vector<char> order;
  s.spawn("lo", 2, [&] {
    s.spawn("hi", 9, [&] { order.push_back('h'); });
    s.yield_point();  // rotation point: hi must win the next dispatch
    order.push_back('l');
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'h');
  EXPECT_EQ(order[1], 'l');
}

TEST(DispatchTest, FifoWithinPriorityLevelAcrossRotations) {
  SchedulerConfig cfg;
  cfg.quantum = 1;
  cfg.strict_priority = true;
  Scheduler s(cfg);
  std::vector<char> trace;  // one entry per dispatch of each thread
  for (char name : {'a', 'b', 'c'}) {
    s.spawn(std::string(1, name), 5, [&s, &trace, name] {
      for (int i = 0; i < 3; ++i) {
        trace.push_back(name);
        s.yield_point();
      }
    });
  }
  s.run();
  // Equal priority: rotation must cycle in arrival order, every round.
  EXPECT_EQ(trace, (std::vector<char>{'a', 'b', 'c', 'a', 'b', 'c', 'a', 'b',
                                      'c'}));
}

TEST(DispatchTest, QuantumRotationIsTickAccurate) {
  SchedulerConfig cfg;
  cfg.quantum = 4;
  Scheduler s(cfg);
  std::vector<char> per_tick;  // which thread executed each yield point
  for (char name : {'a', 'b'}) {
    s.spawn(std::string(1, name), kNormPriority, [&s, &per_tick, name] {
      for (int i = 0; i < 8; ++i) {
        per_tick.push_back(name);
        s.yield_point();
      }
    });
  }
  s.run();
  // Each thread runs exactly `quantum` yield points per slice.
  EXPECT_EQ(per_tick,
            (std::vector<char>{'a', 'a', 'a', 'a', 'b', 'b', 'b', 'b', 'a',
                               'a', 'a', 'a', 'b', 'b', 'b', 'b'}));
}

struct RollbackEx {};

TEST(DispatchTest, RevocationDeliveredAtNextYieldPointInDispatchOrder) {
  SchedulerConfig cfg;
  cfg.quantum = 1;
  Scheduler s(cfg);
  test::FakeEngineLink link(s);
  std::vector<std::string> delivered;
  link.deliver_fn = [](VThread* t) {
    t->revoke_requested = false;
    throw RollbackEx{};
  };
  auto victim_body = [&s, &delivered] {
    try {
      for (int i = 0; i < 1000; ++i) s.yield_point();
    } catch (const RollbackEx&) {
      delivered.push_back(s.current_thread()->name());
    }
  };
  VThread* v1 = s.spawn("v1", kNormPriority, victim_body);
  VThread* v2 = s.spawn("v2", kNormPriority, victim_body);
  s.spawn("requester", kNormPriority, [&] {
    v2->revoke_requested = true;  // posted in this order...
    v1->revoke_requested = true;
  });
  s.run();
  // ...but delivery follows round-robin dispatch order (v1 reaches its next
  // yield point first), not posting order.
  EXPECT_EQ(delivered, (std::vector<std::string>{"v1", "v2"}));
  EXPECT_EQ(link.delivered, 2);
}

TEST(DispatchTest, EqualSleepDeadlinesWakeInArmOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    s.spawn(std::string("s").append(std::to_string(i)), kNormPriority,
            [&s, &order, i] {
      s.sleep_for(100);  // all four share one deadline tick
      order.push_back(i);
    });
  }
  s.run();
  // The heap breaks deadline ties by registration sequence (FIFO).
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(DispatchTest, TimedBlockExpiresAtExactVirtualDeadline) {
  Scheduler s;
  WaitQueue q;
  bool woken = true;
  bool timed_out = false;
  std::uint64_t resumed_at = 0;
  s.spawn("t", kNormPriority, [&] {
    woken = s.block_current_on_for(q, 250);
    timed_out = s.current_thread()->timed_out;
    resumed_at = s.now();
  });
  s.run();
  EXPECT_FALSE(woken);
  EXPECT_TRUE(timed_out);
  // Nobody else generates ticks: the idle clock fast-forwards exactly to
  // the timeout deadline.
  EXPECT_EQ(resumed_at, 250u);
  EXPECT_TRUE(q.empty());
}

TEST(DispatchTest, TimedBlockWokenEarlyReturnsTrue) {
  Scheduler s;
  WaitQueue q;
  bool woken = false;
  std::uint64_t resumed_at = 0;
  s.spawn("blocker", kNormPriority, [&] {
    woken = s.block_current_on_for(q, 10000);
    resumed_at = s.now();
  });
  s.spawn("waker", kNormPriority, [&] { s.wake_best(q); });
  s.run();
  EXPECT_TRUE(woken);
  EXPECT_LT(resumed_at, 10000u);
}

TEST(DispatchTest, InterruptDuringTimedBlockIsNotATimeout) {
  Scheduler s;
  WaitQueue q;
  bool woken = false;
  bool interrupted = false;
  VThread* blocker = s.spawn("blocker", kNormPriority, [&] {
    woken = s.block_current_on_for(q, 10000);
    interrupted = s.current_thread()->interrupted;
  });
  s.spawn("interrupter", kNormPriority, [&] { s.interrupt(blocker); });
  s.run();
  EXPECT_TRUE(woken);  // not a timeout...
  EXPECT_TRUE(interrupted);  // ...but flagged so the caller re-checks
  EXPECT_TRUE(q.empty());
}

TEST(DispatchTest, StaleTimerNeverFiresAfterEarlyWakeup) {
  // An early wakeup leaves the timed block's deadline entry in the heap;
  // generation invalidation must keep it from (a) waking the thread from a
  // later untimed block and (b) dragging the idle clock to the stale
  // deadline.
  Scheduler s;
  WaitQueue q;
  bool first_woken = false;
  std::uint64_t second_resume_at = 0;
  s.spawn("t", kNormPriority, [&] {
    first_woken = s.block_current_on_for(q, 50);  // woken early, ~tick 2
    s.block_current_on(q);  // untimed: only an explicit wake may resume this
    second_resume_at = s.now();
    EXPECT_FALSE(s.current_thread()->timed_out);
  });
  s.spawn("early_waker", kNormPriority, [&] { s.wake_best(q); });
  s.spawn("late_waker", kNormPriority, [&] {
    s.sleep_for(500);
    ASSERT_NE(s.wake_best(q), nullptr);
  });
  s.run();
  EXPECT_TRUE(first_woken);
  // Resumed by the late waker (tick >= 500), not by the stale tick-50 timer.
  EXPECT_GE(second_resume_at, 500u);
}

TEST(DispatchTest, SetPriorityRebucketsTimedWaiterInPlace) {
  // A thread parked in a TIMED block sits in two structures at once: the
  // wait queue (priority-bucketed) and the deadline heap.  Boosting it must
  // re-bucket the queue node in place so wake_best honours the new priority,
  // without disturbing the armed timer.
  Scheduler s;
  WaitQueue q;
  std::vector<char> wake_order;
  VThread* a = s.spawn("a", 3, [&] {
    EXPECT_TRUE(s.block_current_on_for(q, 10000));
    EXPECT_FALSE(s.current_thread()->timed_out);
    wake_order.push_back('a');
  });
  VThread* b = s.spawn("b", 5, [&] {
    EXPECT_TRUE(s.block_current_on_for(q, 10000));
    wake_order.push_back('b');
  });
  s.spawn("booster", 7, [&] {
    s.sleep_for(10);     // both are parked and timer-armed by now
    a->set_priority(8);  // re-bucket: a (was 3) must now outrank b (5)
    EXPECT_EQ(s.wake_best(q), a);
    EXPECT_EQ(s.wake_best(q), b);
  });
  s.run();
  EXPECT_EQ(wake_order, (std::vector<char>{'a', 'b'}));
  // Early wakeups invalidated both deadline entries: nothing dragged the
  // idle clock anywhere near the tick-10000 deadlines.
  EXPECT_LT(s.now(), 10000u);
}

TEST(DispatchTest, RebucketedTimedWaiterStillTimesOutOnSchedule) {
  // The flip side: set_priority must NOT cancel or re-arm the timer.  A
  // boosted-but-never-woken timed waiter still times out at exactly its
  // original virtual deadline.
  Scheduler s;
  WaitQueue q;
  bool woken = true;
  std::uint64_t resumed_at = 0;
  VThread* t = s.spawn("t", 3, [&] {
    woken = s.block_current_on_for(q, 250);
    resumed_at = s.now();
  });
  s.spawn("booster", 7, [&] {
    s.sleep_for(10);
    t->set_priority(8);  // reposition while the tick-250 timer is armed
  });
  s.run();
  EXPECT_FALSE(woken);
  EXPECT_EQ(resumed_at, 250u);  // deadline unchanged by the re-bucket
  EXPECT_TRUE(q.empty());
}

TEST(DispatchTest, PickHookDrivesDispatchAndSeesSortedCandidates) {
  // Exploration substrate: with a pick hook installed the dispatch choice
  // is the hook's, and the candidate list it sees is sorted by thread id —
  // a schedule-independent enumeration of the decision point.
  SchedulerConfig cfg;
  cfg.quantum = 1;
  Scheduler s(cfg);
  bool sorted_always = true;
  std::uint64_t decision_points = 0;
  s.set_pick_hook([&](const std::vector<VThread*>& cands) {
    ++decision_points;
    for (std::size_t i = 1; i < cands.size(); ++i) {
      if (cands[i - 1]->id() >= cands[i]->id()) sorted_always = false;
    }
    return cands.back();  // always run the youngest ready thread
  });
  std::vector<char> order;
  for (char name : {'a', 'b', 'c'}) {
    s.spawn(std::string(1, name), kNormPriority, [&s, &order, name] {
      for (int i = 0; i < 2; ++i) s.yield_point();
      order.push_back(name);
    });
  }
  s.run();
  // Youngest-first dispatch runs c to completion, then b, then a — the
  // exact inversion of the natural round-robin order.
  EXPECT_EQ(order, (std::vector<char>{'c', 'b', 'a'}));
  EXPECT_TRUE(sorted_always);
  EXPECT_GT(decision_points, 0u);
}

struct StepStop {};

TEST(DispatchTest, StepHookFiresPerYieldPointAndMayThrow) {
  // The step hook runs in green-thread context at every yield point, so it
  // may throw; the exception unwinds the checked thread's body like any
  // thread-local failure (this is how the explorer fails a schedule).
  SchedulerConfig cfg;
  cfg.quantum = 1;
  Scheduler s(cfg);
  int steps = 0;
  s.set_step_hook([&](VThread* t) {
    EXPECT_EQ(t, s.current_thread());
    if (++steps == 5) throw StepStop{};
  });
  std::string caught_in;
  auto body = [&] {
    try {
      for (int i = 0; i < 3; ++i) s.yield_point();
    } catch (const StepStop&) {
      caught_in = s.current_thread()->name();
    }
  };
  s.spawn("a", kNormPriority, body);
  s.spawn("b", kNormPriority, body);
  s.run();
  // Round-robin with quantum 1 alternates a,b per tick: the 5th yield point
  // is a's third, so a catches; b still reaches its own third yield.
  EXPECT_EQ(steps, 6);
  EXPECT_EQ(caught_in, "a");
}

}  // namespace
}  // namespace rvk::rt
