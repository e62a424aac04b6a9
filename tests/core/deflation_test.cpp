// Engine-side lock-word inflation and slot lifetime (DESIGN.md §13):
// object monitors materialize in the MonitorTable on first
// synchronized(obj), and a slot is freed only when its object dies (a busy
// slot detaches instead) or when the engine that inflated it dies.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/hooks.hpp"
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

TEST(DeflationTest, RevocationOnObjectMonitorUndoesAndRetries) {
  // The classic fig-5 shape on an object monitor: the low-priority section
  // is revoked, its store undone, and its retry resolves the same slot.
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
  // 4 interleaving threads each synchronize on, and then free, 32 objects
  // of their own in turn: 128 inflations, but a dying object returns its
  // slot, so monitor memory tracks live synchronized objects, not the number
  // of objects ever locked.
  constexpr int kThreads = 4, kObjectsPerThread = 32;
  rt::SchedulerConfig cfg;
  cfg.quantum = 5;
  rt::Scheduler sched(cfg);
  Engine engine(sched);
  heap::Heap heap;
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  const std::size_t live_before = table.live_slots();
  const std::uint64_t inflations_before = table.stats().inflations;
  std::size_t live_max = live_before;
  for (int t = 0; t < kThreads; ++t) {
    sched.spawn(std::string("t").append(std::to_string(t)), rt::kNormPriority,
                [&, t] {
      for (int i = 0; i < kObjectsPerThread; ++i) {
        heap::HeapObject* obj =
            heap.alloc(std::string("o")
                           .append(std::to_string(t))
                           .append(".")
                           .append(std::to_string(i)),
                       1);
        for (int round = 0; round < 3; ++round) {
          engine.synchronized(obj, [&] { sched.yield_point(); });
        }
        live_max = std::max(live_max, table.live_slots());
        heap.free(obj);  // ~ObjectMeta destroys the quiescent slot
      }
    });
  }
  sched.run();
  // Every object's first synchronized inflated its word...
  EXPECT_EQ(table.stats().inflations,
            inflations_before + kThreads * kObjectsPerThread);
  // ...but at most one object per thread ever held a slot.
  EXPECT_LE(live_max, live_before + kThreads);
  EXPECT_EQ(table.live_slots(), live_before);
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
  // was released and the object's word cleared.
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

TEST(DeflationTest, DyingHeldObjectDetachesUntilEngineTeardown) {
  // An object freed inside the section that holds its monitor: the slot
  // is not quiescent (the section owns it), so release_slot detaches it,
  // and the section still commits through the live monitor.  The slot then
  // lives until its engine dies.  Once through the biased lazy path, where
  // no Frame exists and bias_fast_acquire's owner stamp is what keeps the
  // slot alive, and once on the heavy path with a real Frame.
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  for (const bool bias : {true, false}) {
    SCOPED_TRACE(bias ? "biased lazy path" : "heavy path");
    const std::size_t live_before = table.live_slots();
    rt::Scheduler sched;
    heap::Heap heap;
    heap::HeapObject* obj = heap.alloc("obj", 1);
    bool freed = false;
    {
      EngineConfig cfg;
      cfg.bias = bias;
      Engine engine(sched, cfg);
      // RVK_BIAS=0 and the analyzer gate the lazy path off (DESIGN.md §11).
      const bool lazy = engine.config().bias && !analysis::env_enabled();
      sched.spawn("t", rt::kNormPriority, [&] {
        rt::VThread* t = sched.current_thread();
        engine.synchronized(obj, [&] { obj->set<int>(0, 1); });
        engine.synchronized(obj, [&] {
          EXPECT_EQ(t->lazy_frame, lazy);
          heap.free(obj);  // ~ObjectMeta with the monitor held
          EXPECT_EQ(table.live_slots(), live_before + 1);  // detached
          freed = true;
        });
      });
      sched.run();
      EXPECT_TRUE(freed);
      EXPECT_EQ(table.live_slots(), live_before + 1);
    }
    EXPECT_EQ(table.live_slots(), live_before);  // teardown collected it
  }
}

}  // namespace
}  // namespace rvk::core
