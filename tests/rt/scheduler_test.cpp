// Scheduler: quasi-preemptive round-robin semantics (Jikes RVM model).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fake_engine_link.hpp"
#include "rt/scheduler.hpp"

namespace rvk::rt {
namespace {

TEST(SchedulerTest, RunsSingleThreadToCompletion) {
  Scheduler s;
  bool ran = false;
  s.spawn("t", kNormPriority, [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(s.stalled());
  EXPECT_EQ(s.live_count(), 0u);
}

TEST(SchedulerTest, RoundRobinRotatesAtQuantumExpiry) {
  SchedulerConfig cfg;
  cfg.quantum = 10;
  Scheduler s(cfg);
  std::vector<int> order;
  s.spawn("a", kNormPriority, [&] {
    for (int i = 0; i < 25; ++i) s.yield_point();
    order.push_back(1);
  });
  s.spawn("b", kNormPriority, [&] {
    for (int i = 0; i < 5; ++i) s.yield_point();
    order.push_back(2);
  });
  s.run();
  // b needs only 5 yield points (half a quantum); a burns 25 (three slices).
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(SchedulerTest, RoundRobinIgnoresPriorityByDefault) {
  // Paper §4: "The Jikes RVM does not include a priority scheduler; threads
  // are scheduled in a round-robin fashion."
  SchedulerConfig cfg;
  cfg.quantum = 5;
  Scheduler s(cfg);
  std::vector<char> order;
  s.spawn("lo", 1, [&] {
    for (int i = 0; i < 12; ++i) s.yield_point();
    order.push_back('l');
  });
  s.spawn("hi", 10, [&] {
    for (int i = 0; i < 12; ++i) s.yield_point();
    order.push_back('h');
  });
  s.run();
  // Equal work → finish in spawn order despite the priority gap.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'l');
  EXPECT_EQ(order[1], 'h');
}

TEST(SchedulerTest, StrictPriorityModeRunsHighFirst) {
  SchedulerConfig cfg;
  cfg.quantum = 5;
  cfg.strict_priority = true;
  Scheduler s(cfg);
  std::vector<char> order;
  s.spawn("lo", 1, [&] {
    for (int i = 0; i < 12; ++i) s.yield_point();
    order.push_back('l');
  });
  s.spawn("hi", 10, [&] {
    for (int i = 0; i < 12; ++i) s.yield_point();
    order.push_back('h');
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'h');
  EXPECT_EQ(order[1], 'l');
}

TEST(SchedulerTest, VirtualClockCountsYieldPoints) {
  Scheduler s;
  s.spawn("t", kNormPriority, [&] {
    for (int i = 0; i < 42; ++i) s.yield_point();
  });
  s.run();
  EXPECT_EQ(s.now(), 42u);
}

TEST(SchedulerTest, SleepWakesAtDeadline) {
  Scheduler s;
  std::uint64_t woke_at = 0;
  s.spawn("sleeper", kNormPriority, [&] {
    s.sleep_for(500);
    woke_at = s.now();
  });
  s.run();
  EXPECT_GE(woke_at, 500u);
}

TEST(SchedulerTest, IdleClockFastForwardsToNextSleeper) {
  Scheduler s;
  std::uint64_t woke_at = 0;
  s.spawn("sleeper", kNormPriority, [&] {
    s.sleep_for(100000);
    woke_at = s.now();
  });
  s.run();
  // No other thread generates ticks, so the clock must have jumped.
  EXPECT_GE(woke_at, 100000u);
  EXPECT_LT(s.now(), 100100u);
}

TEST(SchedulerTest, SleepersWakeInDeadlineOrder) {
  Scheduler s;
  std::vector<int> order;
  s.spawn("late", kNormPriority, [&] {
    s.sleep_for(2000);
    order.push_back(2);
  });
  s.spawn("early", kNormPriority, [&] {
    s.sleep_for(1000);
    order.push_back(1);
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(SchedulerTest, JoinBlocksUntilTargetFinishes) {
  Scheduler s;
  std::vector<int> order;
  const ThreadId worker = s.spawn("worker", kNormPriority, [&] {
    for (int i = 0; i < 300; ++i) s.yield_point();
    order.push_back(1);
  })->id();
  s.spawn("joiner", kNormPriority, [&] {
    s.join(worker);
    order.push_back(2);
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(SchedulerTest, JoinAlreadyFinishedThreadReturnsImmediately) {
  Scheduler s;
  const ThreadId worker = s.spawn("worker", kNormPriority, [] {})->id();
  bool joined = false;
  s.spawn("joiner", kNormPriority, [&] {
    for (int i = 0; i < 50; ++i) s.yield_point();
    s.join(worker);
    joined = true;
  });
  s.run();
  EXPECT_TRUE(joined);
}

TEST(SchedulerTest, BlockAndWakeViaWaitQueue) {
  Scheduler s;
  WaitQueue q;
  std::vector<int> order;
  s.spawn("blocker", kNormPriority, [&] {
    order.push_back(1);
    s.block_current_on(q);
    order.push_back(3);
  });
  s.spawn("waker", kNormPriority, [&] {
    order.push_back(2);
    VThread* w = s.wake_best(q);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), "blocker");
  });
  s.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 3);
}

TEST(SchedulerTest, InterruptYanksBlockedThread) {
  Scheduler s;
  WaitQueue q;
  bool was_interrupted = false;
  VThread* blocker = s.spawn("blocker", kNormPriority, [&] {
    s.block_current_on(q);
    was_interrupted = s.current_thread()->interrupted;
  });
  s.spawn("interrupter", kNormPriority, [&] { s.interrupt(blocker); });
  s.run();
  EXPECT_TRUE(was_interrupted);
  EXPECT_TRUE(q.empty());
}

TEST(SchedulerTest, InterruptCancelsSleep) {
  Scheduler s;
  std::uint64_t woke_at = 0;
  VThread* sleeper = s.spawn("sleeper", kNormPriority, [&] {
    s.sleep_for(1000000);
    woke_at = s.now();
  });
  s.spawn("interrupter", kNormPriority, [&] { s.interrupt(sleeper); });
  s.run();
  EXPECT_LT(woke_at, 1000000u);
}

TEST(SchedulerTest, StallReturnsWhenConfigured) {
  SchedulerConfig cfg;
  cfg.on_stall = SchedulerConfig::OnStall::kReturn;
  Scheduler s(cfg);
  WaitQueue q;
  s.spawn("stuck", kNormPriority, [&] { s.block_current_on(q); });
  s.run();
  EXPECT_TRUE(s.stalled());
  EXPECT_EQ(s.live_count(), 1u);
}

TEST(SchedulerTest, StallHookCanRescue) {
  SchedulerConfig cfg;
  cfg.on_stall = SchedulerConfig::OnStall::kReturn;
  Scheduler s(cfg);
  WaitQueue q;
  bool finished = false;
  s.spawn("stuck", kNormPriority, [&] {
    s.block_current_on(q);
    finished = true;
  });
  test::FakeEngineLink link(s);
  link.stall_fn = [&] { return s.wake_best(q) != nullptr; };
  s.run();
  EXPECT_TRUE(finished);
  EXPECT_FALSE(s.stalled());
  EXPECT_EQ(link.stalls, 1);
}

TEST(SchedulerTest, UncaughtExceptionRethrownFromRun) {
  Scheduler s;
  s.spawn("thrower", kNormPriority,
          [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(SchedulerTest, ExceptionsInsideGreenThreadsAreContained) {
  Scheduler s;
  bool caught = false;
  s.spawn("catcher", kNormPriority, [&] {
    try {
      throw std::logic_error("local");
    } catch (const std::logic_error&) {
      caught = true;
    }
  });
  s.run();
  EXPECT_TRUE(caught);
}

TEST(SchedulerTest, SpawnFromGreenThread) {
  Scheduler s;
  std::vector<int> order;
  s.spawn("parent", kNormPriority, [&] {
    order.push_back(1);
    s.spawn("child", kNormPriority, [&] { order.push_back(2); });
    for (int i = 0; i < 200; ++i) s.yield_point();
    order.push_back(3);
  });
  s.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], 2);  // child ran during parent's yield loop
}

TEST(SchedulerTest, BackgroundHookFiresPeriodically) {
  // The engine's background work runs in scheduler context after every
  // dispatch; the engine applies its own period (EngineConfig).
  SchedulerConfig cfg;
  cfg.quantum = 5;
  Scheduler s(cfg);
  test::FakeEngineLink link(s);
  s.spawn("t", kNormPriority, [&] {
    for (int i = 0; i < 100; ++i) s.yield_point();
  });
  s.run();
  EXPECT_GE(link.after_dispatches, 20);  // 100 yield points / quantum 5
  EXPECT_EQ(static_cast<std::uint64_t>(link.after_dispatches),
            s.dispatches());
}

TEST(SchedulerTest, ForbiddenSwitchPointsReachTheEngineLink) {
  // While regions are marked, each switch point inside a guard is reported
  // to the scheduler's link with where it happened; outside one, nothing.
  Scheduler s;
  test::FakeEngineLink link(s);
  set_region_marking(true);  // what a live analyzer does
  std::vector<std::string> where;
  WaitQueue q;
  s.spawn("t", kNormPriority, [&] {
    s.yield_point();
    ForbiddenRegionGuard region(s.current_thread());
    s.yield_point();
    where.emplace_back(link.last_forbidden_where);
    s.sleep_for(1);
    where.emplace_back(link.last_forbidden_where);
    s.block_current_on(q);
    where.emplace_back(link.last_forbidden_where);
  });
  s.spawn("waker", kNormPriority, [&] {
    while (q.empty()) s.yield_now();
    s.wake_best(q);
  });
  s.run();
  set_region_marking(false);
  EXPECT_EQ(link.forbidden_switches, 3);
  EXPECT_EQ(where, (std::vector<std::string>{"yield point", "sleep_for",
                                             "blocking call"}));
}

TEST(SchedulerTest, ThreadStatsAreCounted) {
  SchedulerConfig cfg;
  cfg.quantum = 10;
  Scheduler s(cfg);
  ThreadStats seen;  // post-mortem: the block may host another thread later
  s.spawn("t", kNormPriority, [&] {
    for (int i = 0; i < 35; ++i) s.yield_point();
    seen = s.current_thread()->stats();
  });
  s.run();
  EXPECT_EQ(seen.yield_points, 35u);
  EXPECT_GE(seen.dispatches, 4u);  // 35 yield points / quantum 10
}

TEST(SchedulerTest, CurrentVThreadAccessors) {
  Scheduler s;
  EXPECT_EQ(current_vthread(), nullptr);  // outside run()
  std::string seen;
  s.spawn("t", kNormPriority, [&] {
    ASSERT_NE(current_vthread(), nullptr);
    seen = current_vthread()->name();
  });
  s.run();
  EXPECT_EQ(seen, "t");
  EXPECT_EQ(current_vthread(), nullptr);  // cleared after run()
}

TEST(SchedulerTest, FinishedThreadStacksAreReclaimed) {
  // Open-loop drivers inject far more threads than are ever live at once;
  // each finished fiber must give its stack and its undo-log chunks back at
  // dispatch so memory is O(live threads), not O(total spawned).  The
  // recycling itself (pool bounds, statistics kept, guard page kept) is
  // covered in recycle_test.cpp.
  Scheduler s;
  constexpr int kThreads = 50;
  for (int i = 0; i < kThreads; ++i) {
    s.spawn(std::string("t").append(std::to_string(i)), kNormPriority, [&] {
      for (int j = 0; j < 3; ++j) s.yield_point();
    });
  }
  EXPECT_EQ(s.stacks_reclaimed(), 0u);
  s.run();
  EXPECT_EQ(s.stacks_reclaimed(), kThreads);
  // Spawning from inside a green thread reclaims too.
  s.spawn("parent", kNormPriority, [&] {
    s.spawn("child", kNormPriority, [] {});
    s.yield_point();
  });
  s.run();
  EXPECT_EQ(s.stacks_reclaimed(), kThreads + 2u);
}

TEST(SchedulerTest, RunAgainAfterAddingThreads) {
  Scheduler s;
  int runs = 0;
  s.spawn("first", kNormPriority, [&] { ++runs; });
  s.run();
  s.spawn("second", kNormPriority, [&] { ++runs; });
  s.run();
  EXPECT_EQ(runs, 2);
}

}  // namespace
}  // namespace rvk::rt
