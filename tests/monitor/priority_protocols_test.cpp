// The classical priority-inversion protocols the paper compares against
// (§1, §5): priority inheritance and priority ceiling emulation.
#include <gtest/gtest.h>

#include <vector>

#include "monitor/priority_ceiling.hpp"
#include "monitor/priority_inheritance.hpp"
#include "rt/scheduler.hpp"

namespace rvk::monitor {
namespace {

rt::SchedulerConfig strict_cfg() {
  rt::SchedulerConfig cfg;
  cfg.quantum = 5;
  cfg.strict_priority = true;  // inheritance only matters with a priority scheduler
  return cfg;
}

TEST(PriorityInheritanceTest, OwnerInheritsWaiterPriority) {
  rt::Scheduler s(strict_cfg());
  InheritanceDomain dom;
  PriorityInheritanceMonitor m("m", dom);
  int owner_prio_during_contention = 0;
  int lo_base = 0;
  s.spawn("lo", 2, [&] {
    m.acquire();
    for (int i = 0; i < 200; ++i) s.yield_point();
    owner_prio_during_contention = s.current_thread()->priority();
    m.release();
    EXPECT_EQ(s.current_thread()->priority(), 2);  // restored to base
    lo_base = dom.base_priority(s.current_thread());
  });
  s.spawn("hi", 8, [&] {
    s.sleep_for(20);  // let lo take the lock
    m.acquire();
    m.release();
  });
  s.run();
  EXPECT_EQ(owner_prio_during_contention, 8);
  EXPECT_EQ(lo_base, 2);
  EXPECT_GE(m.boosts(), 1u);
}

TEST(PriorityInheritanceTest, TransitiveBoostThroughChain) {
  // lo holds A; mid holds B and blocks on A; hi blocks on B.
  // hi's priority must propagate through mid to lo.
  rt::Scheduler s(strict_cfg());
  InheritanceDomain dom;
  PriorityInheritanceMonitor a("A", dom);
  PriorityInheritanceMonitor b("B", dom);
  int lo_prio_seen = 0;
  s.spawn("lo", 2, [&] {
    a.acquire();
    for (int i = 0; i < 400; ++i) s.yield_point();
    lo_prio_seen = s.current_thread()->priority();
    a.release();
  });
  s.spawn("mid", 5, [&] {
    s.sleep_for(10);
    b.acquire();
    a.acquire();  // blocks on lo
    a.release();
    b.release();
  });
  s.spawn("hi", 9, [&] {
    s.sleep_for(30);
    b.acquire();  // blocks on mid → boost propagates to lo
    b.release();
  });
  s.run();
  EXPECT_EQ(lo_prio_seen, 9);
}

TEST(PriorityInheritanceTest, PriorityRestoredStepwiseAcrossMonitors) {
  rt::Scheduler s(strict_cfg());
  InheritanceDomain dom;
  PriorityInheritanceMonitor a("A", dom);
  PriorityInheritanceMonitor b("B", dom);
  std::vector<int> prio_trace;
  s.spawn("lo", 2, [&] {
    a.acquire();
    b.acquire();
    for (int i = 0; i < 300; ++i) s.yield_point();
    prio_trace.push_back(s.current_thread()->priority());  // boosted via B
    b.release();
    prio_trace.push_back(s.current_thread()->priority());  // still boosted? via A waiters: none → base
    a.release();
    prio_trace.push_back(s.current_thread()->priority());
  });
  s.spawn("hi", 8, [&] {
    s.sleep_for(20);
    b.acquire();
    b.release();
  });
  s.run();
  ASSERT_EQ(prio_trace.size(), 3u);
  EXPECT_EQ(prio_trace[0], 8);  // inherited from hi waiting on B
  EXPECT_EQ(prio_trace[1], 2);  // B released: no waiter justifies a boost
  EXPECT_EQ(prio_trace[2], 2);
}

TEST(PriorityInheritanceTest, SolvesInversionUnderStrictScheduler) {
  // The classical scenario: lo holds the lock, mid-priority CPU hogs starve
  // lo, hi blocks on the lock.  Without inheritance, the hogs run before lo
  // and hi waits for all of them; with inheritance lo outranks the hogs.
  auto run_scenario = [&](bool inherit) {
    rt::Scheduler s(strict_cfg());
    InheritanceDomain dom;
    std::unique_ptr<MonitorBase> m;
    if (inherit) {
      m = std::make_unique<PriorityInheritanceMonitor>("m", dom);
    } else {
      m = std::make_unique<BlockingMonitor>("m");
    }
    std::uint64_t hi_done_tick = 0;
    s.spawn("lo", 2, [&] {
      m->acquire();  // lo gets the lock before anyone wakes
      for (int i = 0; i < 300; ++i) s.yield_point();
      m->release();
    });
    // Medium-priority hogs wake once the lock is held and burn CPU,
    // starving plain low-priority lo under the strict scheduler.
    for (int k = 0; k < 3; ++k) {
      s.spawn("mid" + std::to_string(k), 5, [&] {
        s.sleep_for(10);
        for (int i = 0; i < 2000; ++i) s.yield_point();
      });
    }
    s.spawn("hi", 9, [&] {
      s.sleep_for(30);
      m->acquire();
      m->release();
      hi_done_tick = s.now();
    });
    s.run();
    return hi_done_tick;
  };
  const std::uint64_t with_pi = run_scenario(true);
  const std::uint64_t without_pi = run_scenario(false);
  EXPECT_LT(with_pi, without_pi);
}

TEST(PriorityCeilingTest, OwnerRaisedToCeilingImmediately) {
  rt::Scheduler s(strict_cfg());
  CeilingDomain dom;
  PriorityCeilingMonitor m("m", 9, dom);
  int inside = 0, after = 0;
  s.spawn("lo", 2, [&] {
    m.acquire();
    inside = s.current_thread()->priority();
    m.release();
    after = s.current_thread()->priority();
  });
  s.run();
  EXPECT_EQ(inside, 9);
  EXPECT_EQ(after, 2);
  EXPECT_EQ(m.ceiling(), 9);
}

TEST(PriorityCeilingTest, NestedCeilingsRestoreToMaxOfHeld) {
  rt::Scheduler s(strict_cfg());
  CeilingDomain dom;
  PriorityCeilingMonitor a("A", 9, dom);
  PriorityCeilingMonitor b("B", 6, dom);
  std::vector<int> trace;
  s.spawn("t", 2, [&] {
    b.acquire();
    trace.push_back(s.current_thread()->priority());  // 6
    a.acquire();
    trace.push_back(s.current_thread()->priority());  // 9
    a.release();
    trace.push_back(s.current_thread()->priority());  // back to 6 (B held)
    b.release();
    trace.push_back(s.current_thread()->priority());  // base
  });
  s.run();
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0], 6);
  EXPECT_EQ(trace[1], 9);
  EXPECT_EQ(trace[2], 6);
  EXPECT_EQ(trace[3], 2);
}

TEST(PriorityCeilingTest, CeilingPreventsMediumPreemption) {
  // While lo holds a ceiling-9 lock, a priority-5 hog must not run before
  // lo finishes the section (strict-priority scheduler).
  rt::Scheduler s(strict_cfg());
  CeilingDomain dom;
  PriorityCeilingMonitor m("m", 9, dom);
  bool section_done = false;
  bool hog_ran_during_section = false;
  s.spawn("lo", 2, [&] {
    m.acquire();
    for (int i = 0; i < 100; ++i) s.yield_point();
    section_done = true;
    m.release();
  });
  s.spawn("mid", 5, [&] {
    s.sleep_for(10);  // wake while lo is inside the ceiling-boosted section
    if (!section_done) hog_ran_during_section = true;
  });
  s.run();
  EXPECT_FALSE(hog_ran_during_section);
}

}  // namespace
}  // namespace rvk::monitor
