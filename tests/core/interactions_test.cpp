// Revocation-interaction edge cases: victims blocked on inner monitors,
// victims sleeping inside sections, merged requests, the strict-priority
// victim boost, and the introspection reports.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/engine.hpp"
#include "core/report.hpp"
#include "heap/heap.hpp"
#include "rt/scheduler.hpp"

namespace rvk::core {
namespace {

struct Fixture {
  explicit Fixture(EngineConfig cfg = {}, rt::SchedulerConfig scfg = {})
      : sched(scfg), engine(sched, cfg) {}
  rt::Scheduler sched;
  Engine engine;
  heap::Heap heap;
};

TEST(InteractionTest, VictimBlockedOnInnerMonitorIsWokenAndUnwinds) {
  // lo holds `outer` and is PARKED acquiring `inner` (held by a peer).  hi
  // contends on `outer`: the revocation must yank lo out of inner's entry
  // queue, unwind, and release outer.
  Fixture fx;
  RevocableMonitor* outer = fx.engine.make_monitor("outer");
  RevocableMonitor* inner = fx.engine.make_monitor("inner");
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  std::vector<char> order;
  int lo_outer_runs = 0;
  fx.sched.spawn("peer", 5, [&] {
    fx.engine.synchronized(*inner, [&] {
      for (int i = 0; i < 3000; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.spawn("lo", 2, [&] {
    fx.sched.sleep_for(10);  // let peer take inner first
    fx.engine.synchronized(*outer, [&] {
      ++lo_outer_runs;
      o->set<int>(0, 1);
      fx.engine.synchronized(*inner, [] {});  // parks behind peer
    });
    order.push_back('l');
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(100);  // lo is now parked on inner
    fx.engine.synchronized(*outer, [&] {
      EXPECT_EQ(o->get<int>(0), 0);  // lo's write was undone
    });
    order.push_back('h');
  });
  fx.sched.run();
  EXPECT_EQ(lo_outer_runs, 2);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'h');
  EXPECT_GE(fx.engine.stats().rollbacks_completed, 1u);
}

TEST(InteractionTest, VictimSleepingInsideSectionIsWoken) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  int lo_runs = 0;
  std::uint64_t hi_done_at = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++lo_runs;
      o->set<int>(0, 1);
      if (lo_runs == 1) fx.sched.sleep_for(1'000'000);  // long nap, lock held
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [&] { EXPECT_EQ(o->get<int>(0), 0); });
    hi_done_at = fx.sched.now();
  });
  fx.sched.run();
  EXPECT_EQ(lo_runs, 2);
  EXPECT_LT(hi_done_at, 100'000u);  // did not wait out the nap
}

TEST(InteractionTest, MergedRequestsUnwindToOutermostTarget) {
  // Two high-priority threads contend on `inner` and `outer` respectively;
  // the victim's pending request must merge to the OUTER frame so one
  // unwind satisfies both.
  Fixture fx;
  RevocableMonitor* outer = fx.engine.make_monitor("outer");
  RevocableMonitor* inner = fx.engine.make_monitor("inner");
  int outer_runs = 0, inner_runs = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*outer, [&] {
      ++outer_runs;
      fx.engine.synchronized(*inner, [&] {
        ++inner_runs;
        if (outer_runs == 1) {
          for (int i = 0; i < 4000; ++i) fx.sched.yield_point();
        }
      });
    });
  });
  fx.sched.spawn("hi-inner", 8, [&] {
    fx.sched.sleep_for(40);
    fx.engine.synchronized(*inner, [] {});
  });
  fx.sched.spawn("hi-outer", 9, [&] {
    fx.sched.sleep_for(60);
    fx.engine.synchronized(*outer, [] {});
  });
  fx.sched.run();
  EXPECT_EQ(outer_runs, 2);  // one rollback re-ran the whole nest
  EXPECT_EQ(inner_runs, 2);
  const EngineStats& st = fx.engine.stats();
  EXPECT_GE(st.revocations_requested, 2u);
  EXPECT_EQ(st.rollbacks_completed, 1u);  // merged: a single re-execution
}

TEST(InteractionTest, VictimBoostUnderStrictPriority) {
  // Strict-priority scheduler + medium hogs: the victim is boosted to the
  // requester's priority, so it runs past the hogs to serve the revocation
  // (without the boost the mechanism itself would invert).
  rt::SchedulerConfig scfg;
  scfg.quantum = 10;
  scfg.strict_priority = true;
  Fixture fx({}, scfg);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::uint64_t hi_done_at = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 400; ++i) fx.sched.yield_point();
    });
  });
  for (int k = 0; k < 2; ++k) {
    fx.sched.spawn(std::string("mid").append(std::to_string(k)), 5, [&] {
      fx.sched.sleep_for(10);
      for (int i = 0; i < 5000; ++i) fx.sched.yield_point();
    });
  }
  fx.sched.spawn("hi", 9, [&] {
    fx.sched.sleep_for(30);
    fx.engine.synchronized(*m, [] {});
    hi_done_at = fx.sched.now();
  });
  fx.sched.run();
  EXPECT_LT(hi_done_at, 1000u);  // revocation served promptly
}

TEST(InteractionTest, BoostRestoredAfterRollback) {
  rt::SchedulerConfig scfg;
  scfg.strict_priority = true;
  Fixture fx({}, scfg);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  int lo_priority_after = -1;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 500; ++i) fx.sched.yield_point();
    });
    lo_priority_after = fx.sched.current_thread()->priority();
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(30);
    fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  EXPECT_GE(fx.engine.stats().rollbacks_completed, 1u);
  EXPECT_EQ(lo_priority_after, 2);  // boost shed at rollback completion
}

TEST(InteractionTest, BothDetectionModesTogether) {
  EngineConfig cfg;
  cfg.detection = DetectionMode::kBoth;
  cfg.background_period = 5;
  rt::SchedulerConfig scfg;
  scfg.quantum = 50;
  Fixture fx(cfg, scfg);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::vector<char> order;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 3000; ++i) fx.sched.yield_point();
    });
    order.push_back('l');
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(20);
    fx.engine.synchronized(*m, [] {});
    order.push_back('h');
  });
  fx.sched.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'h');
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 1u);
}

TEST(InteractionTest, StatsInvariants) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("o", 4);
  for (int t = 0; t < 6; ++t) {
    fx.sched.spawn(std::string("t").append(std::to_string(t)), t < 2 ? 8 : 2,
                   [&, t] {
      for (int s = 0; s < 4; ++s) {
        fx.sched.sleep_for(static_cast<std::uint64_t>(37 * (t + s + 1)));
        fx.engine.synchronized(*m, [&] {
          for (int i = 0; i < 400; ++i) {
            o->set<int>(i % 4, i);
            fx.sched.yield_point();
          }
        });
      }
    });
  }
  fx.sched.run();
  const EngineStats& st = fx.engine.stats();
  // Every entered frame either committed or aborted.
  EXPECT_EQ(st.sections_entered, st.sections_committed + st.frames_aborted);
  // Every completed rollback aborted at least one frame.
  EXPECT_GE(st.frames_aborted, st.rollbacks_completed);
  // All 24 user sections committed exactly once.
  EXPECT_EQ(st.sections_committed, 24u);
}

TEST(InteractionTest, ReportsRenderCounters) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("queue-monitor");
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 1000; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(20);
    fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  std::ostringstream engine_os, monitor_os;
  print_engine_report(fx.engine, engine_os);
  print_monitor_report(fx.engine, monitor_os);
  EXPECT_NE(engine_os.str().find("sections re-executed"), std::string::npos);
  EXPECT_NE(engine_os.str().find("1 requested"), std::string::npos);
  EXPECT_NE(monitor_os.str().find("queue-monitor"), std::string::npos);
}

}  // namespace
}  // namespace rvk::core
