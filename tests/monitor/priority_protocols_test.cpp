// The classical priority-inversion protocols the paper compares against
// (§1, §5): priority inheritance and priority ceiling emulation.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
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

// The open-loop request shape over one protocol monitor: a driver spawns
// 100k short request threads, 8 at a time, and each takes `m` across one
// yield point, so most of a wave blocks and wakes on it; every other
// request gives up after one tick.  The domain keeps an entry only while a
// thread holds or waits on the monitor, so heap in use stops growing after
// the first waves (an entry per request ever seen would grow it by several
// MB).  Heap in use counts glibc's arenas and its mmapped chunks.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

void run_protocol_requests(MonitorBase& m) {
  constexpr int kRequests = 100000;
  constexpr int kWidth = 8;
  constexpr int kWarmup = 1000;
  rt::SchedulerConfig cfg;
  cfg.quantum = 1;
  rt::Scheduler s(cfg);
  int sections = 0, gave_up = 0;
  std::size_t heap_warm = 0, heap_end = 0;
  s.spawn("driver", rt::kMaxPriority, [&] {
    std::vector<rt::ThreadId> wave;
    for (int r = 0; r < kRequests; r += kWidth) {
      wave.clear();
      for (int i = 0; i < kWidth; ++i) {
        wave.push_back(s.spawn("req", 2 + i % 4, [&, i] {
          if (i % 2 == 0 && !m.try_enter(1)) {
            ++gave_up;
            return;
          }
          if (i % 2 != 0) m.acquire();
          s.yield_point();
          ++sections;
          m.release();
        })->id());
      }
      for (rt::ThreadId id : wave) s.join(id);
      if (r == kWarmup) heap_warm = heap_in_use();
    }
    heap_end = heap_in_use();
  });
  s.run();
  EXPECT_EQ(sections + gave_up, kRequests);
  EXPECT_GT(gave_up, 0);
  EXPECT_GT(m.stats().contended, 0u);
  // mallinfo2 reads glibc's arenas; under a sanitizer's allocator it reads
  // nothing useful, so the bound only applies where it grew from nonzero.
  if (heap_warm != 0) {
    EXPECT_LT(heap_end, heap_warm + (std::size_t{1} << 20));
  }
}

TEST(PriorityInheritanceTest, HundredThousandRequestsKeepDomainBounded) {
  InheritanceDomain dom;
  PriorityInheritanceMonitor m("m", dom);
  run_protocol_requests(m);
  EXPECT_GT(m.boosts(), 0u);
}

TEST(PriorityCeilingTest, HundredThousandRequestsKeepDomainBounded) {
  CeilingDomain dom;
  PriorityCeilingMonitor m("m", 9, dom);
  run_protocol_requests(m);
}

TEST(PriorityInheritanceTest, AbandonedWaitLeavesNoStaleBlocker) {
  // A waiter that times out is no longer blocked: a later boost through a
  // monitor it holds stops at it instead of following the abandoned wait on
  // to B's owner, and the boost the waiter itself gave B's owner ends when
  // it gives up.
  rt::Scheduler s(strict_cfg());
  InheritanceDomain dom;
  PriorityInheritanceMonitor a("A", dom);
  PriorityInheritanceMonitor b("B", dom);
  int owner_prio = 0;
  s.spawn("b-owner", 3, [&] {
    b.acquire();
    for (int i = 0; i < 400; ++i) s.yield_point();
    owner_prio = s.current_thread()->priority();
    b.release();
  });
  s.spawn("quitter", 4, [&] {
    s.sleep_for(5);
    a.acquire();
    EXPECT_FALSE(b.try_enter(20));  // blocks on B, then gives up
    for (int i = 0; i < 100; ++i) s.yield_point();
    a.release();
  });
  s.spawn("hi", 9, [&] {
    s.sleep_for(50);
    a.acquire();  // boosts the quitter, and no further: it waits on nothing
    a.release();
  });
  s.run();
  // The quitter's boost left with it, and hi's 9 never reached B's owner.
  EXPECT_EQ(owner_prio, 3);
}

TEST(PriorityInheritanceTest, AbandonedWaitUnboostsTheWholeChain) {
  // Two levels: mid holds B and waits on C, which low holds, so the
  // quitter's boost through B reaches low via mid.  When the quitter gives
  // up, both fall back while their sections go on: mid to its base, low to
  // mid's priority (mid still waits on C).
  rt::Scheduler s(strict_cfg());
  InheritanceDomain dom;
  PriorityInheritanceMonitor b("B", dom);
  PriorityInheritanceMonitor c("C", dom);
  rt::VThread* mid = nullptr;
  int low_peak = 0;
  int low_after = 0;
  int mid_after = 0;
  s.spawn("low", 2, [&] {
    c.acquire();
    for (int i = 0; i < 400; ++i) {
      s.yield_point();
      low_peak = std::max(low_peak, s.current_thread()->priority());
    }
    low_after = s.current_thread()->priority();
    mid_after = mid->priority();
    c.release();
  });
  mid = s.spawn("mid", 3, [&] {
    s.sleep_for(5);
    b.acquire();
    c.acquire();  // blocks on low
    c.release();
    b.release();
  });
  s.spawn("quitter", 8, [&] {
    s.sleep_for(10);
    EXPECT_FALSE(b.try_enter(20));  // blocks on B, then gives up
  });
  s.run();
  EXPECT_EQ(low_peak, 8);  // the boost did reach the end of the chain
  EXPECT_EQ(mid_after, 3);
  EXPECT_EQ(low_after, 3);
}

}  // namespace
}  // namespace rvk::monitor
