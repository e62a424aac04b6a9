// Engine-side lock-word inflation and scavenge-driven deflation
// (DESIGN.md §13): object monitors materialize in the MonitorTable on first
// synchronized(obj), deflate only when provably quiescent AND unreferenced
// by any frame, and survive nothing they shouldn't.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "monitor/monitor_table.hpp"
#include "rt/scheduler.hpp"

namespace rvk::core {
namespace {

struct Fixture {
  explicit Fixture(EngineConfig cfg = {}) : engine(sched, cfg) {}
  rt::Scheduler sched;
  Engine engine;
  heap::Heap heap;
};

TEST(DeflationTest, MonitorOfInflatesTheObjectWord) {
  Fixture fx;
  heap::HeapObject* obj = fx.heap.alloc("obj", 1);
  EXPECT_TRUE(obj->meta().lock.is_free());
  RevocableMonitor* m = fx.engine.monitor_of(obj);
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(obj->meta().lock.is_inflated());
  EXPECT_EQ(m->name(), "monitor:obj");
  EXPECT_EQ(fx.engine.monitor_of(obj), m);  // resolves, does not re-inflate
  EXPECT_GE(monitor::MonitorTable::global().stats().inflations, 1u);
}

TEST(DeflationTest, ScavengeDeflatesIdleObjectMonitor) {
  Fixture fx;
  heap::HeapObject* obj = fx.heap.alloc("obj", 1);
  const std::size_t monitors_before = fx.engine.monitors().size();
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(obj, [&] { obj->set<int>(0, 1); });
  });
  fx.sched.run();
  EXPECT_TRUE(obj->meta().lock.is_inflated());
  EXPECT_EQ(fx.engine.monitors().size(), monitors_before + 1);
  // Nobody holds it, no frame references it: the sweep returns the slot.
  EXPECT_GE(fx.engine.scavenge_monitors(), 1u);
  EXPECT_TRUE(obj->meta().lock.is_free());
  EXPECT_EQ(fx.engine.monitors().size(), monitors_before);
  EXPECT_EQ(obj->get<int>(0), 1);  // the DATA of course survives
}

TEST(DeflationTest, ScavengeRefusedWhileSectionActive) {
  Fixture fx;
  heap::HeapObject* obj = fx.heap.alloc("obj", 1);
  fx.engine.scavenge_monitors();  // drain any leftovers from earlier tests
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(obj, [&] {
      obj->set<int>(0, 1);  // materialized: a real frame references m
      // The monitor is OWNED here, and the frame's pointer must not be
      // invalidated under the section: both layers refuse.
      EXPECT_EQ(fx.engine.scavenge_monitors(), 0u);
      EXPECT_TRUE(obj->meta().lock.is_inflated());
    });
  });
  fx.sched.run();
}

TEST(DeflationTest, ScavengeRefusedWhileFrameLazy) {
  // A biased re-entry defers its frame (DESIGN.md §11): before the first
  // logged write there is no Frame and bias_fast_acquire's owner stamp plus
  // the engine veto's lazy-register check are what keep the monitor
  // undeflatable.  Scavenging from inside the lazy window must refuse.
  Fixture fx;
  heap::HeapObject* obj = fx.heap.alloc("obj", 1);
  fx.engine.scavenge_monitors();  // drain any leftovers from earlier tests
  bool lazy_checked = false;
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    // First section: full entry, grants bias to this thread on release.
    fx.engine.synchronized(obj, [&] { obj->set<int>(0, 1); });
    // Second section: biased fast entry — frame stays lazy until a write.
    fx.engine.synchronized(obj, [&] {
      EXPECT_EQ(fx.engine.scavenge_monitors(), 0u);
      EXPECT_TRUE(obj->meta().lock.is_inflated());
      lazy_checked = true;
    });
  });
  fx.sched.run();
  EXPECT_TRUE(lazy_checked);
}

TEST(DeflationTest, ReinflationAfterScavengeKeepsExclusion) {
  Fixture fx;
  heap::HeapObject* obj = fx.heap.alloc("obj", 1);
  const auto before = monitor::MonitorTable::global().stats();
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(obj, [&] { obj->set<int>(0, 1); });
  });
  fx.sched.run();
  ASSERT_GE(fx.engine.scavenge_monitors(), 1u);
  // The next synchronized(obj) re-inflates a fresh monitor into the
  // (pooled) table and the protocol continues as if nothing happened.
  int max_inside = 0, inside = 0;
  for (int t = 0; t < 3; ++t) {
    fx.sched.spawn("t" + std::to_string(t), rt::kNormPriority, [&] {
      for (int i = 0; i < 5; ++i) {
        fx.engine.synchronized(obj, [&] {
          max_inside = std::max(max_inside, ++inside);
          obj->set<int>(0, obj->get<int>(0) + 1);
          for (int k = 0; k < 10; ++k) fx.sched.yield_point();
          --inside;
        });
      }
    });
  }
  fx.sched.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(obj->get<int>(0), 16);
  const auto after = monitor::MonitorTable::global().stats();
  EXPECT_GE(after.re_inflations, before.re_inflations + 1);
}

TEST(DeflationTest, RevocationAcrossDeflationRetriesOnFreshMonitor) {
  // synchronized(obj) re-resolves monitor_of on every retry, so a rollback
  // whose victim's monitor was deflated+re-inflated between abort and retry
  // still locks the RIGHT (current) monitor.  Exercised here by revoking a
  // low-priority section on an object monitor — the classic fig-5 shape.
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
  EXPECT_EQ(hi_saw, 0);   // revocation undid lo's speculative store
  EXPECT_EQ(lo_runs, 2);  // lo retried and committed
  EXPECT_EQ(obj->get<int>(0), 5);
}

TEST(DeflationTest, ObjectMonitorChurnKeepsSlotCountFlat) {
  // 64 objects synchronized on by 4 interleaving threads all inflate, and
  // one scavenge returns every slot: monitor memory tracks live
  // synchronization, not the number of objects ever locked.
  rt::SchedulerConfig cfg;
  cfg.quantum = 5;
  rt::Scheduler sched(cfg);
  Engine engine(sched);
  heap::Heap heap;
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  engine.scavenge_monitors();  // drain any leftovers from earlier tests
  const std::size_t live_before = table.live_slots();
  const std::uint64_t inflations_before = table.stats().inflations;
  std::vector<heap::HeapObject*> objs;
  for (int i = 0; i < 64; ++i) {
    objs.push_back(heap.alloc("o" + std::to_string(i), 1));
  }
  for (int t = 0; t < 4; ++t) {
    sched.spawn("t" + std::to_string(t), rt::kNormPriority, [&] {
      for (int round = 0; round < 3; ++round) {
        for (heap::HeapObject* obj : objs) {
          engine.synchronized(obj, [&] { sched.yield_point(); });
        }
      }
    });
  }
  sched.run();
  // Each object's first synchronized inflated its word, and nothing
  // deflated mid-run...
  EXPECT_EQ(table.stats().inflations, inflations_before + objs.size());
  EXPECT_EQ(table.live_slots(), live_before + objs.size());
  // ...but none of it persists past a scavenge.
  EXPECT_EQ(engine.scavenge_monitors(), objs.size());
  EXPECT_EQ(table.live_slots(), live_before);
  for (heap::HeapObject* obj : objs) EXPECT_TRUE(obj->meta().lock.is_free());
}

TEST(DeflationTest, EngineTeardownReleasesItsSlots) {
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  const std::size_t live_before = table.live_slots();
  rt::Scheduler sched;
  heap::Heap heap;
  heap::HeapObject* obj = heap.alloc("obj", 1);
  {
    Engine engine(sched);
    sched.spawn("t", rt::kNormPriority, [&] {
      engine.synchronized(obj, [&] { obj->set<int>(0, 1); });
    });
    sched.run();
    EXPECT_EQ(table.live_slots(), live_before + 1);
  }
  // The engine died: its RevocableMonitors cannot outlive it, so the slot
  // was released and the object's word went stale (== free).
  EXPECT_EQ(table.live_slots(), live_before);
  EXPECT_EQ(table.monitor_at(obj->meta().lock), nullptr);
  {
    // A second engine re-inflates the same object without ceremony.
    Engine engine2(sched);
    sched.spawn("t2", rt::kNormPriority, [&] {
      engine2.synchronized(obj, [&] { obj->set<int>(0, 2); });
    });
    sched.run();
    EXPECT_EQ(obj->get<int>(0), 2);
    EXPECT_EQ(table.live_slots(), live_before + 1);
  }
  EXPECT_EQ(table.live_slots(), live_before);
}

TEST(DeflationTest, DyingObjectReturnsItsSlot) {
  Fixture fx;
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  const std::size_t live_before = table.live_slots();
  heap::HeapObject* obj = fx.heap.alloc("obj", 1);
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(obj, [&] { obj->set<int>(0, 1); });
  });
  fx.sched.run();
  EXPECT_EQ(table.live_slots(), live_before + 1);
  fx.heap.free(obj);  // ~ObjectMeta releases the quiescent slot
  EXPECT_EQ(table.live_slots(), live_before);
}

}  // namespace
}  // namespace rvk::core
