// Undo-log deduplication (extension; paper §6 future work): only the first
// store per location per frame is logged, and rollback semantics are
// unchanged.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "jmm/checker.hpp"
#include "jmm/trace.hpp"
#include "log/dedup.hpp"
#include "rt/scheduler.hpp"

namespace rvk::core {
namespace {

struct Fixture {
  explicit Fixture(EngineConfig cfg) : engine(sched, cfg) {}
  static EngineConfig dedup_cfg() {
    EngineConfig cfg;
    cfg.dedup_logging = true;
    return cfg;
  }
  rt::Scheduler sched;
  Engine engine;
  heap::Heap heap;
};

TEST(DedupTableTest, FirstLogPerFrameOnly) {
  log::DedupTable t;
  log::Word a = 0, b = 0;
  EXPECT_TRUE(t.should_log(&a, 1));
  EXPECT_FALSE(t.should_log(&a, 1));  // duplicate within frame 1
  EXPECT_TRUE(t.should_log(&b, 1));   // different location
  EXPECT_TRUE(t.should_log(&a, 2));   // different frame
  EXPECT_FALSE(t.should_log(&a, 2));
  EXPECT_EQ(t.size(), 2u);
}

TEST(DedupTableTest, ClearResets) {
  log::DedupTable t;
  log::Word a = 0;
  EXPECT_TRUE(t.should_log(&a, 1));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.should_log(&a, 1));
}

TEST(DedupTableTest, GrowsPastInitialCapacity) {
  log::DedupTable t(16);
  std::vector<log::Word> words(1000, 0);
  for (auto& w : words) EXPECT_TRUE(t.should_log(&w, 1));
  for (auto& w : words) EXPECT_FALSE(t.should_log(&w, 1));
  EXPECT_EQ(t.size(), 1000u);
  EXPECT_GE(t.capacity(), 1024u);
}

TEST(DedupTest, RepeatedWritesLogOnce) {
  Fixture fx(Fixture::dedup_cfg());
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::size_t log_size = 0;
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 100; ++i) o->set<int>(0, i);
      log_size = fx.sched.current_thread()->undo_log.size();
    });
  });
  fx.sched.run();
  EXPECT_EQ(log_size, 1u);  // 100 stores, one location, one entry
  EXPECT_EQ(o->get<int>(0), 99);
}

TEST(DedupTest, RollbackRestoresPreSectionValue) {
  Fixture fx(Fixture::dedup_cfg());
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  o->set<int>(0, 7);
  int hi_saw = -1;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 50; ++i) o->set<int>(0, 100 + i);  // deduped
      for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [&] { hi_saw = o->get<int>(0); });
  });
  fx.sched.run();
  EXPECT_EQ(hi_saw, 7);  // rollback restored the PRE-SECTION value
  EXPECT_EQ(o->get<int>(0), 149);  // lo's retry committed
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 1u);
}

TEST(DedupTest, NestedFramesLogPerFrame) {
  // The inner frame must re-log a location the outer frame already logged:
  // an inner rollback restores the OUTER frame's value, not the pre-section
  // value.
  Fixture fx(Fixture::dedup_cfg());
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* outer = fx.engine.make_monitor("outer");
  RevocableMonitor* inner = fx.engine.make_monitor("inner");
  int inner_runs = 0;
  int seen_after_inner_rollback = -1;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*outer, [&] {
      o->set<int>(0, 1);     // outer frame logs old value 0
      o->set<int>(0, 2);     // deduped within outer
      fx.engine.synchronized(*inner, [&] {
        ++inner_runs;
        o->set<int>(0, 3);   // inner frame MUST log old value 2
        if (inner_runs == 1) {
          for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
        }
      });
      seen_after_inner_rollback = o->get<int>(0);
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*inner, [] {});  // revokes lo's INNER frame only
  });
  fx.sched.run();
  EXPECT_EQ(inner_runs, 2);
  // After the inner retry committed, the value is the inner frame's.
  EXPECT_EQ(seen_after_inner_rollback, 3);
  EXPECT_EQ(o->get<int>(0), 3);
}

TEST(DedupTest, ArraySweepLogBoundedByWorkingSet) {
  Fixture fx(Fixture::dedup_cfg());
  heap::HeapArray<std::uint64_t>* arr = fx.heap.alloc_array<std::uint64_t>(8);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::size_t log_size = 0;
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int round = 0; round < 500; ++round) {
        for (std::size_t i = 0; i < 8; ++i) {
          arr->set(i, static_cast<std::uint64_t>(round));
        }
      }
      log_size = fx.sched.current_thread()->undo_log.size();
    });
  });
  fx.sched.run();
  EXPECT_EQ(log_size, 8u);  // 4000 stores, 8 locations
}

TEST(DedupTest, TraceCheckerAcceptsDedupedRollback) {
  Fixture fx(Fixture::dedup_cfg());
  jmm::Trace trace(fx.engine);
  {
    heap::HeapObject* o = fx.heap.alloc("o", 2);
    RevocableMonitor* m = fx.engine.make_monitor("m");
    fx.sched.spawn("lo", 2, [&] {
      fx.engine.synchronized(*m, [&] {
        for (int i = 0; i < 30; ++i) {
          o->set<int>(0, i);
          o->set<int>(1, -i);
          fx.sched.yield_point();
        }
        for (int i = 0; i < 1500; ++i) fx.sched.yield_point();
      });
    });
    fx.sched.spawn("hi", 8, [&] {
      fx.sched.sleep_for(40);
      fx.engine.synchronized(*m, [&] {
        (void)o->get<int>(0);
        (void)o->get<int>(1);
      });
    });
    fx.sched.run();
    EXPECT_GE(fx.engine.stats().rollbacks_completed, 1u);
  }
  jmm::CheckResult r = jmm::check_consistency(trace.events());
  EXPECT_TRUE(r.ok()) << r.report();
}

TEST(DedupTest, DisabledByDefault) {
  EngineConfig cfg;  // dedup_logging defaults to false
  Fixture fx(cfg);
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::size_t log_size = 0;
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 100; ++i) o->set<int>(0, i);
      log_size = fx.sched.current_thread()->undo_log.size();
    });
  });
  fx.sched.run();
  EXPECT_EQ(log_size, 100u);  // paper-faithful: every store logged
}

}  // namespace
}  // namespace rvk::core
