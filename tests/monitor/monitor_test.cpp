// MonitorBase/BlockingMonitor: Java monitor semantics on green threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "monitor/monitor.hpp"
#include "rt/scheduler.hpp"

namespace rvk::monitor {
namespace {

TEST(MonitorTest, UncontendedAcquireRelease) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  s.spawn("t", rt::kNormPriority, [&] {
    m.acquire();
    EXPECT_TRUE(m.held_by_current());
    EXPECT_EQ(m.recursion(), 1);
    EXPECT_EQ(m.deposited_priority(), rt::kNormPriority);
    m.release();
    EXPECT_EQ(m.owner(), nullptr);
    EXPECT_EQ(m.deposited_priority(), 0);
  });
  s.run();
  EXPECT_EQ(m.stats().acquires, 1u);
  EXPECT_EQ(m.stats().contended, 0u);
}

TEST(MonitorTest, RecursiveAcquisition) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  s.spawn("t", rt::kNormPriority, [&] {
    m.acquire();
    m.acquire();
    m.acquire();
    EXPECT_EQ(m.recursion(), 3);
    m.release();
    EXPECT_EQ(m.recursion(), 2);
    EXPECT_TRUE(m.held_by_current());
    m.release();
    m.release();
    EXPECT_EQ(m.owner(), nullptr);
  });
  s.run();
}

TEST(MonitorTest, MutualExclusion) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  int inside = 0;
  int max_inside = 0;
  auto body = [&] {
    for (int k = 0; k < 20; ++k) {
      m.acquire();
      inside++;
      max_inside = std::max(max_inside, inside);
      for (int i = 0; i < 30; ++i) s.yield_point();
      inside--;
      m.release();
      s.yield_point();
    }
  };
  for (int i = 0; i < 4; ++i) {
    s.spawn(std::string("t").append(std::to_string(i)), rt::kNormPriority,
            body);
  }
  s.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_GT(m.stats().contended, 0u);
}

TEST(MonitorTest, HandoffPrefersHighPriorityWaiter) {
  // §4: prioritized monitor queues — on release, a waiting high-priority
  // thread beats earlier-arrived low-priority waiters.
  rt::SchedulerConfig cfg;
  cfg.quantum = 5;
  rt::Scheduler s(cfg);
  BlockingMonitor m("m");
  std::vector<char> order;
  s.spawn("holder", rt::kNormPriority, [&] {
    m.acquire();
    for (int i = 0; i < 100; ++i) s.yield_point();  // let both waiters queue
    m.release();
  });
  s.spawn("lo", 2, [&] {
    m.acquire();
    order.push_back('l');
    m.release();
  });
  s.spawn("hi", 8, [&] {
    for (int i = 0; i < 10; ++i) s.yield_point();  // arrive after lo
    m.acquire();
    order.push_back('h');
    m.release();
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'h');
  EXPECT_EQ(order[1], 'l');
  EXPECT_GE(m.stats().handoffs, 1u);
}

TEST(MonitorTest, OrdinaryReleaseAllowsBarging) {
  // Jikes-faithful: release() wakes the best waiter but does not reserve;
  // an already-running thread (even the releaser itself) may barge back in
  // before the woken waiter is dispatched.
  rt::SchedulerConfig cfg;
  cfg.quantum = 5;
  rt::Scheduler s(cfg);
  BlockingMonitor m("m");
  std::vector<char> order;
  s.spawn("holder", 3, [&] {
    m.acquire();
    for (int i = 0; i < 20; ++i) s.yield_point();  // let 'lo' queue up
    m.release();  // wakes lo, no reservation
    m.acquire();  // barges straight back in
    order.push_back('b');
    m.release();
  });
  s.spawn("lo", 2, [&] {
    m.acquire();  // blocks; woken, finds the monitor taken, re-blocks
    order.push_back('l');
    m.release();
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'b');
  EXPECT_EQ(order[1], 'l');
  EXPECT_EQ(m.stats().steals, 0u);  // barging a free monitor is not a steal
}

TEST(MonitorTest, ReservingReleaseBlocksEqualPriorityBarging) {
  // release_reserving() (the rollback handoff): the releaser may NOT barge
  // back in at equal/lower priority; the reserved waiter enters first.
  rt::SchedulerConfig cfg;
  cfg.quantum = 5;
  rt::Scheduler s(cfg);
  BlockingMonitor m("m");
  std::vector<char> order;
  s.spawn("holder", 2, [&] {
    m.acquire();
    for (int i = 0; i < 20; ++i) s.yield_point();  // let 'peer' queue up
    m.release_reserving();  // reserved for peer
    m.acquire();            // equal priority: may not displace; blocks
    order.push_back('h');
    m.release();
  });
  s.spawn("peer", 2, [&] {
    m.acquire();
    order.push_back('p');
    m.release();
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'p');  // reservation honoured
  EXPECT_EQ(order[1], 'h');
}

TEST(MonitorTest, ReservationStolenByStrictlyHigherPriority) {
  rt::SchedulerConfig cfg;
  cfg.quantum = 5;
  rt::Scheduler s(cfg);
  BlockingMonitor m("m");
  std::vector<char> order;
  s.spawn("holder", 8, [&] {
    m.acquire();
    for (int i = 0; i < 20; ++i) s.yield_point();  // let 'lo' queue up
    m.release_reserving();  // reserved for lo (priority 2)
    m.acquire();            // strictly higher: displaces the reservation
    order.push_back('s');
    m.release();
  });
  s.spawn("lo", 2, [&] {
    m.acquire();
    order.push_back('l');
    m.release();
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 's');
  EXPECT_EQ(order[1], 'l');
  EXPECT_GE(m.stats().steals, 1u);
}

TEST(MonitorTest, WaitReleasesAndReacquiresFully) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  std::vector<int> order;
  s.spawn("waiter", rt::kNormPriority, [&] {
    m.acquire();
    m.acquire();  // recursion 2
    order.push_back(1);
    m.wait();     // must release BOTH levels
    EXPECT_EQ(m.recursion(), 2);  // restored after reacquisition
    order.push_back(3);
    m.release();
    m.release();
  });
  s.spawn("notifier", rt::kNormPriority, [&] {
    m.acquire();  // succeeds only if wait released fully
    order.push_back(2);
    m.notify_one();
    m.release();
  });
  s.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
  EXPECT_EQ(m.stats().waits, 1u);
  EXPECT_EQ(m.stats().notifies, 1u);
}

TEST(MonitorTest, NotifyAllWakesEveryWaiter) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    s.spawn(std::string("w").append(std::to_string(i)), rt::kNormPriority, [&] {
      m.acquire();
      m.wait();
      ++woken;
      m.release();
    });
  }
  s.spawn("notifier", rt::kNormPriority, [&] {
    for (int i = 0; i < 50; ++i) s.yield_point();  // let all three wait
    m.acquire();
    m.notify_all();
    m.release();
  });
  s.run();
  EXPECT_EQ(woken, 3);
}

TEST(MonitorTest, NotifyOneWakesExactlyOne) {
  rt::SchedulerConfig cfg;
  cfg.on_stall = rt::SchedulerConfig::OnStall::kReturn;
  rt::Scheduler s(cfg);
  BlockingMonitor m("m");
  int woken = 0;
  for (int i = 0; i < 2; ++i) {
    s.spawn(std::string("w").append(std::to_string(i)), rt::kNormPriority, [&] {
      m.acquire();
      m.wait();
      ++woken;
      m.release();
    });
  }
  s.spawn("notifier", rt::kNormPriority, [&] {
    for (int i = 0; i < 50; ++i) s.yield_point();
    m.acquire();
    m.notify_one();
    m.release();
  });
  s.run();  // one waiter never notified → stall (kReturn)
  EXPECT_EQ(woken, 1);
  EXPECT_TRUE(s.stalled());
}

TEST(MonitorTest, WaitersQueueByPriority) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  std::vector<char> order;
  auto waiter = [&](char tag) {
    m.acquire();
    m.wait();
    order.push_back(tag);
    m.release();
  };
  s.spawn("lo", 2, [&] { waiter('l'); });
  s.spawn("hi", 8, [&] { waiter('h'); });
  s.spawn("notifier", rt::kNormPriority, [&] {
    for (int i = 0; i < 50; ++i) s.yield_point();
    m.acquire();
    m.notify_all();
    m.release();
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'h');  // high-priority waiter reacquires first
}

}  // namespace
}  // namespace rvk::monitor
