// Revocation-safety analyzer: lockset race detection and barrier-bypass
// lint, exercised end-to-end through the engine on deterministic
// virtual-clock schedules (same fixture idiom as tests/core/).
#include <gtest/gtest.h>

#include <vector>

#include "analysis/hooks.hpp"
#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "heap/statics.hpp"
#include "heap/volatile_var.hpp"
#include "rt/scheduler.hpp"

namespace rvk::analysis {
namespace {

struct Fixture {
  explicit Fixture(core::EngineConfig cfg = analyzing_config(),
                   rt::SchedulerConfig scfg = {})
      : sched(scfg), engine(sched, cfg) {}

  static core::EngineConfig analyzing_config() {
    core::EngineConfig cfg;
    cfg.analyze = true;
    return cfg;
  }

  const AnalysisReport& report() { return engine.analyzer()->report(); }

  rt::Scheduler sched;
  core::Engine engine;
  heap::Heap heap;
};

std::uint64_t count(const AnalysisReport& r, Violation::Kind k) {
  return r.count(k);
}

TEST(LocksetTest, UnprotectedSharedWritesAreFlagged) {
  // Seeded true race: two threads write the same slot with no monitor at
  // all.  The green-thread substrate serializes them, so nothing actually
  // corrupts — which is exactly why the lockset discipline (not an observed
  // interleaving) has to be the detector.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("shared", 1);
  for (int i = 0; i < 2; ++i) {
    fx.sched.spawn("racer" + std::to_string(i), rt::kNormPriority, [&fx, o] {
      for (int n = 0; n < 3; ++n) {
        o->set<int>(0, n);
        fx.sched.yield_now();
      }
    });
  }
  fx.sched.run();
  ASSERT_NE(fx.engine.analyzer(), nullptr);
  EXPECT_EQ(count(fx.report(), Violation::Kind::kLocksetRace), 1u)
      << "one report per location";
  EXPECT_EQ(count(fx.report(), Violation::Kind::kBarrierBypass), 0u);
}

TEST(LocksetTest, MonitorProtectedHandoffIsClean) {
  // The same sharing pattern, but every access is inside synchronized(m):
  // the candidate lockset stays {m} and nothing is reported.
  Fixture fx;
  core::RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("shared", 1);
  for (int i = 0; i < 2; ++i) {
    fx.sched.spawn("worker" + std::to_string(i), rt::kNormPriority,
                   [&fx, m, o] {
                     for (int n = 0; n < 3; ++n) {
                       fx.engine.synchronized(*m, [&] {
                         o->set<int>(0, o->get<int>(0) + 1);
                       });
                       fx.sched.yield_now();
                     }
                   });
  }
  fx.sched.run();
  EXPECT_EQ(fx.report().violations.size(), 0u);
  EXPECT_EQ(o->get<int>(0), 6);
}

TEST(LocksetTest, DistinctFieldsUnderDistinctMonitorsAreClean) {
  // Per-slot granularity: slot 0 is guarded by L1, slot 1 by L2.  A
  // per-object candidate set would false-positive here (this is the
  // deadlock tests' access pattern).
  Fixture fx;
  core::RevocableMonitor* l1 = fx.engine.make_monitor("L1");
  core::RevocableMonitor* l2 = fx.engine.make_monitor("L2");
  heap::HeapObject* o = fx.heap.alloc("split", 2);
  for (int i = 0; i < 2; ++i) {
    fx.sched.spawn(std::string("w").append(std::to_string(i)),
                   rt::kNormPriority, [&fx, l1, l2, o] {
      fx.engine.synchronized(*l1, [&] { o->set<int>(0, 1); });
      fx.sched.yield_now();
      fx.engine.synchronized(*l2, [&] { o->set<int>(1, 1); });
    });
  }
  fx.sched.run();
  EXPECT_EQ(fx.report().violations.size(), 0u);
}

TEST(LocksetTest, LocklessReadOfPublishedDataIsClean) {
  // Writer publishes under a monitor; reader polls without one.  The §2.2
  // JMM guard legitimizes lockless reads (writer-mark escalation pins the
  // writer), so the policy keeps them out of the lockset evidence.
  Fixture fx;
  core::RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("flag", 1);
  fx.sched.spawn("writer", rt::kNormPriority, [&fx, m, o] {
    fx.engine.synchronized(*m, [&] { o->set<int>(0, 1); });
  });
  fx.sched.spawn("reader", rt::kNormPriority, [&fx, o] {
    for (int n = 0; n < 10 && o->get<int>(0) == 0; ++n) fx.sched.yield_now();
  });
  fx.sched.run();
  EXPECT_EQ(fx.report().violations.size(), 0u);
}

TEST(LocksetTest, UnloggedStoreInsideSectionIsBarrierBypass) {
  // set_word_unlogged models a store whose barrier the compiler elided as
  // thread-local (§1.1).  Inside a synchronized section that elision breaks
  // rollback: the analyzer must flag it.
  Fixture fx;
  core::RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("obj", 2);
  fx.sched.spawn("T", rt::kNormPriority, [&fx, m, o] {
    o->set_word_unlogged(0, 7);  // outside any section: legitimate
    fx.engine.synchronized(*m, [&] {
      o->set<int>(1, 1);           // barriered: covered by the undo log
      o->set_word_unlogged(0, 9);  // bypass: rollback could not revert it
    });
  });
  fx.sched.run();
  EXPECT_EQ(count(fx.report(), Violation::Kind::kBarrierBypass), 1u);
  EXPECT_EQ(count(fx.report(), Violation::Kind::kLocksetRace), 0u);
}

TEST(LocksetTest, TracedStoreWithNoLogEntryIsBarrierBypass) {
  // A store traced as barriered whose slot has no entry in the frame's log
  // segment — what a barrier that skipped its append would produce.
  Fixture fx;
  core::RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("obj", 2);
  fx.sched.spawn("T", rt::kNormPriority, [&fx, m, o] {
    heap::Word never_logged = 0;
    fx.engine.synchronized(*m, [&] {
      o->set<int>(0, 1);  // logged: covers slot 0 only
      heap::trace_access(heap::TraceAccess::Kind::kWrite, &never_logged, o, 1,
                         5, 0);
    });
  });
  fx.sched.run();
  EXPECT_EQ(count(fx.report(), Violation::Kind::kBarrierBypass), 1u);
}

TEST(LocksetTest, FilteredRepeatStoreIsCovered) {
  // The write filter appends only a frame's first store to a word; the
  // repeats are covered by that entry, even once later appends bury it
  // below the log tail.  A nested frame logs its own first store.
  Fixture fx;
  core::RevocableMonitor* outer = fx.engine.make_monitor("outer");
  core::RevocableMonitor* inner = fx.engine.make_monitor("inner");
  heap::HeapObject* o = fx.heap.alloc("obj", 2);
  std::size_t outer_log = 0;
  std::size_t total_log = 0;
  fx.sched.spawn("T", rt::kNormPriority, [&] {
    fx.engine.synchronized(*outer, [&] {
      o->set<int>(0, 1);
      o->set<int>(1, 1);
      o->set<int>(0, 2);  // filtered: its entry is not the tail
      outer_log = fx.sched.current_thread()->undo_log.size();
      fx.engine.synchronized(*inner, [&] {
        o->set<int>(0, 3);  // the inner frame's first store: appended
        o->set<int>(0, 4);  // filtered
      });
      total_log = fx.sched.current_thread()->undo_log.size();
    });
  });
  fx.sched.run();
  EXPECT_EQ(outer_log, 2u);
  EXPECT_EQ(total_log, 3u);
  EXPECT_EQ(fx.report().violations.size(), 0u);
  EXPECT_EQ(fx.report().bypass_checks, 5u);
}

TEST(LocksetTest, BarrieredSectionStoresAreCovered) {
  // Negative control for the bypass lint: ordinary barriered stores inside
  // sections (object, array, static, volatile) all append before tracing.
  Fixture fx;
  core::RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("obj", 1);
  heap::HeapArray<int>* a = fx.heap.alloc_array<int>(4);
  heap::StaticsTable statics;
  const std::uint32_t s = statics.define("g");
  heap::VolatileVar<int> v("v");
  fx.sched.spawn("T", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] {
      o->set<int>(0, 1);
      a->set(2, 5);
      statics.set<int>(s, 3);
      v.store(4);
    });
  });
  fx.sched.run();
  EXPECT_EQ(fx.report().violations.size(), 0u);
  EXPECT_GE(fx.report().bypass_checks, 4u);
}

}  // namespace
}  // namespace rvk::analysis
