// Per-object monitors (§2: "every object can act as a monitor") and
// speculative-allocation reclamation.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "rt/scheduler.hpp"

namespace rvk::core {
namespace {

struct Fixture {
  explicit Fixture(EngineConfig cfg = {}) : engine(sched, cfg) {}
  rt::Scheduler sched;
  Engine engine;
  heap::Heap heap;
};

TEST(ObjectMonitorTest, SameObjectSameMonitor) {
  Fixture fx;
  heap::HeapObject* a = fx.heap.alloc("a", 1);
  heap::HeapObject* b = fx.heap.alloc("b", 1);
  EXPECT_EQ(fx.engine.monitor_of(a), fx.engine.monitor_of(a));
  EXPECT_NE(fx.engine.monitor_of(a), fx.engine.monitor_of(b));
  EXPECT_EQ(fx.engine.monitor_of(a)->name(), "monitor:a");
}

TEST(ObjectMonitorTest, SynchronizedOnObjectExcludes) {
  Fixture fx;
  heap::HeapObject* account = fx.heap.alloc("account", 1);
  int max_inside = 0, inside = 0;
  for (int t = 0; t < 4; ++t) {
    fx.sched.spawn(std::string("t").append(std::to_string(t)),
                   rt::kNormPriority, [&] {
      for (int s = 0; s < 10; ++s) {
        fx.engine.synchronized(account, [&] {
          max_inside = std::max(max_inside, ++inside);
          account->set<int>(0, account->get<int>(0) + 1);
          for (int i = 0; i < 20; ++i) fx.sched.yield_point();
          --inside;
        });
      }
    });
  }
  fx.sched.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(account->get<int>(0), 40);
}

TEST(ObjectMonitorTest, ObjectMonitorSectionsAreRevocable) {
  Fixture fx;
  heap::HeapObject* obj = fx.heap.alloc("obj", 1);
  int lo_runs = 0, hi_saw = -1;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(obj, [&] {
      ++lo_runs;
      obj->set<int>(0, 5);
      if (lo_runs == 1) {
        for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
      }
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(obj, [&] { hi_saw = obj->get<int>(0); });
  });
  fx.sched.run();
  EXPECT_EQ(hi_saw, 0);
  EXPECT_EQ(lo_runs, 2);
}

TEST(SpecAllocTest, CommittedAllocationSurvives) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* created = nullptr;
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] {
      created = fx.heap.alloc("child", 2);
      created->set<int>(0, 9);
    });
  });
  fx.sched.run();
  ASSERT_NE(created, nullptr);
  EXPECT_TRUE(fx.heap.owns(created));
  EXPECT_EQ(created->get<int>(0), 9);
  EXPECT_EQ(fx.engine.stats().spec_allocs_reclaimed, 0u);
}

TEST(SpecAllocTest, RevokedAllocationIsReclaimed) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* root = fx.heap.alloc("root", 1);
  int lo_runs = 0;
  std::size_t live_during_first_run = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++lo_runs;
      heap::HeapObject* child = fx.heap.alloc("child", 1);
      child->set<int>(0, 42);
      root->set_ref(0, child);  // publish via a (speculative) heap store
      if (lo_runs == 1) {
        live_during_first_run = fx.heap.object_count();
        for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
      }
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [&] {
      // The speculative publication was undone with the store...
      EXPECT_EQ(root->get_ref(0), nullptr);
    });
  });
  fx.sched.run();
  EXPECT_EQ(lo_runs, 2);
  EXPECT_EQ(fx.engine.stats().spec_allocs_reclaimed, 1u);
  // ... and the orphaned child was reclaimed; the retry's child is live.
  EXPECT_EQ(fx.heap.object_count(), live_during_first_run);
  EXPECT_NE(root->get_ref(0), nullptr);
  EXPECT_EQ(root->get_ref(0)->get<int>(0), 42);
}

TEST(SpecAllocTest, NestedCommitMigratesToParentThenReclaims) {
  // Allocation in a committed INNER section is still reclaimed when the
  // OUTER section aborts.
  Fixture fx;
  RevocableMonitor* outer = fx.engine.make_monitor("outer");
  RevocableMonitor* inner = fx.engine.make_monitor("inner");
  int outer_runs = 0;
  const std::size_t base_live = fx.heap.object_count();
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*outer, [&] {
      ++outer_runs;
      fx.engine.synchronized(*inner, [&] {
        (void)fx.heap.alloc("inner-child", 1);
      });
      if (outer_runs == 1) {
        for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
      }
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*outer, [] {});
  });
  fx.sched.run();
  EXPECT_EQ(outer_runs, 2);
  EXPECT_EQ(fx.engine.stats().spec_allocs_reclaimed, 1u);
  EXPECT_EQ(fx.heap.object_count(), base_live + 1);  // only the retry's child
}

TEST(SpecAllocTest, AllocationOutsideSectionsIsNeverTracked) {
  Fixture fx;
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    (void)fx.heap.alloc("plain", 1);
  });
  fx.sched.run();
  EXPECT_EQ(fx.heap.object_count(), 1u);
  EXPECT_EQ(fx.engine.stats().spec_allocs_reclaimed, 0u);
}

TEST(SpecAllocTest, ObjectMonitorOfReclaimedObjectIsDropped) {
  // Synchronizing on a speculative object inflates its lock word; the
  // reclaim destroys the object, whose ~ObjectMeta returns the table slot,
  // so a recycled address cannot alias the monitor.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  int lo_runs = 0;
  std::size_t monitors_after_first_run = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++lo_runs;
      heap::HeapObject* child = fx.heap.alloc("child", 1);
      fx.engine.synchronized(child, [&] { child->set<int>(0, 1); });
      if (lo_runs == 1) {
        monitors_after_first_run = fx.engine.monitors().size();
        for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
      }
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  EXPECT_EQ(lo_runs, 2);
  EXPECT_GE(monitors_after_first_run, 2u);
  EXPECT_GE(fx.engine.stats().spec_allocs_reclaimed, 1u);
}

}  // namespace
}  // namespace rvk::core
