// The paper's JMM counterexamples (Figures 2–4), executed for real on the
// engine with trace recording on, verified with the consistency checker:
// the non-revocability machinery must prevent every "bad revocation".
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "heap/volatile_var.hpp"
#include "jmm/checker.hpp"
#include "jmm/trace.hpp"
#include "rt/scheduler.hpp"

namespace rvk::jmm {
namespace {

struct Fixture {
  rt::Scheduler sched;
  core::Engine engine{sched};
  heap::Heap heap;
};

TEST(PaperScenarioTest, Figure2NestingNoBadRevocation) {
  // Figure 2: T acquires outer+inner, writes v, releases inner; T' acquires
  // inner and reads v.  A later rollback of T's outer section would make
  // T''s read out-of-thin-air — the engine must pin outer instead.
  Fixture fx;
  Trace trace(fx.engine);
  {
    core::RevocableMonitor* outer = fx.engine.make_monitor("outer");
    core::RevocableMonitor* inner = fx.engine.make_monitor("inner");
    heap::HeapObject* v = fx.heap.alloc("v", 1);
    fx.sched.spawn("T", 2, [&] {
      fx.engine.synchronized(*outer, [&] {
        fx.engine.synchronized(*inner, [&] { v->set<int>(0, 1); });
        for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
      });
    });
    fx.sched.spawn("Tprime", 5, [&] {
      fx.sched.sleep_for(30);
      int seen = 0;
      fx.engine.synchronized(*inner, [&] { seen = v->get<int>(0); });
      EXPECT_EQ(seen, 1);
    });
    fx.sched.spawn("hi", 8, [&] {
      fx.sched.sleep_for(100);
      fx.engine.synchronized(*outer, [] {});  // tries to revoke T
    });
    fx.sched.run();
  }
  CheckResult r = check_consistency(trace.events());
  EXPECT_TRUE(r.ok()) << r.report();
  EXPECT_GT(r.reads_checked, 0u);
}

TEST(PaperScenarioTest, Figure3VolatileNoBadRevocation) {
  // Figure 3: T writes a volatile inside a monitor; T' reads it with no
  // monitor.  Rollback after the read would violate the JMM.
  Fixture fx;
  Trace trace(fx.engine);
  {
    core::RevocableMonitor* m = fx.engine.make_monitor("M");
    heap::VolatileVar<int> vol("vol");
    fx.sched.spawn("T", 2, [&] {
      fx.engine.synchronized(*m, [&] {
        vol.store(1);
        for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
      });
    });
    fx.sched.spawn("Tprime", 5, [&] {
      fx.sched.sleep_for(30);
      EXPECT_EQ(vol.load(), 1);
    });
    fx.sched.spawn("hi", 8, [&] {
      fx.sched.sleep_for(100);
      fx.engine.synchronized(*m, [] {});
    });
    fx.sched.run();
  }
  CheckResult r = check_consistency(trace.events());
  EXPECT_TRUE(r.ok()) << r.report();
}

TEST(PaperScenarioTest, Figure4TerminationDependsOnPartialResult) {
  // Figure 4: T' spins until it observes T's write of v under monitor
  // `inner`, while T still holds `outer`.  Re-scheduling T' "before" T is
  // semantically impossible; the engine must instead pin T's outer section
  // once the dependency forms, and BOTH threads must terminate.
  Fixture fx;
  Trace trace(fx.engine);
  {
    core::RevocableMonitor* outer = fx.engine.make_monitor("outer");
    core::RevocableMonitor* inner = fx.engine.make_monitor("inner");
    heap::HeapObject* v = fx.heap.alloc("v", 1);  // static boolean v=false
    bool tprime_done = false;
    fx.sched.spawn("T", 2, [&] {
      fx.engine.synchronized(*outer, [&] {
        fx.engine.synchronized(*inner, [&] { v->set<bool>(0, true); });
        for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
      });
    });
    fx.sched.spawn("Tprime", 5, [&] {
      for (;;) {
        bool b = false;
        fx.engine.synchronized(*inner, [&] { b = v->get<bool>(0); });
        if (b) break;
        fx.sched.yield_point();
      }
      tprime_done = true;
    });
    fx.sched.spawn("hi", 8, [&] {
      fx.sched.sleep_for(200);
      fx.engine.synchronized(*outer, [] {});
    });
    fx.sched.run();
    EXPECT_TRUE(tprime_done);
  }
  CheckResult r = check_consistency(trace.events());
  EXPECT_TRUE(r.ok()) << r.report();
}

TEST(PaperScenarioTest, RevocationProducesConsistentTrace) {
  // A revocation that legitimately happens (no escaped dependency) must
  // leave a trace the checker accepts: undone values were never observed.
  Fixture fx;
  Trace trace(fx.engine);
  {
    core::RevocableMonitor* m = fx.engine.make_monitor("m");
    heap::HeapObject* o = fx.heap.alloc("o", 4);
    fx.sched.spawn("lo", 2, [&] {
      fx.engine.synchronized(*m, [&] {
        for (int i = 0; i < 1500; ++i) {
          o->set<int>(i % 4, i);
          fx.sched.yield_point();
        }
      });
    });
    fx.sched.spawn("hi", 8, [&] {
      fx.sched.sleep_for(50);
      fx.engine.synchronized(*m, [&] {
        for (int i = 0; i < 4; ++i) (void)o->get<int>(i);
      });
    });
    fx.sched.run();
    EXPECT_GE(fx.engine.stats().rollbacks_completed, 1u);
  }
  CheckResult r = check_consistency(trace.events());
  EXPECT_TRUE(r.ok()) << r.report();
  EXPECT_GT(r.undos_seen, 0u);
}

TEST(PaperScenarioTest, TraceRecordsAcquireReleasePairs) {
  Fixture fx;
  Trace trace(fx.engine);
  {
    core::RevocableMonitor* m = fx.engine.make_monitor("m");
    fx.sched.spawn("t", rt::kNormPriority, [&] {
      fx.engine.synchronized(*m, [] {});
      fx.engine.synchronized(*m, [] {});
    });
    fx.sched.run();
  }
  int acquires = 0, releases = 0;
  for (const Event& e : trace.events()) {
    if (e.kind == EventKind::kAcquire) ++acquires;
    if (e.kind == EventKind::kRelease) ++releases;
  }
  EXPECT_EQ(acquires, 2);
  EXPECT_EQ(releases, 2);
}

}  // namespace
}  // namespace rvk::jmm
