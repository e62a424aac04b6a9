// Undo-log deduplication through the lossy write filter
// (log/write_filter.hpp; paper §6 future work): a frame logs only its first
// store to a word, a filter collision appends a harmless duplicate, and
// rollback semantics are unchanged.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "jmm/checker.hpp"
#include "jmm/trace.hpp"
#include "log/write_filter.hpp"
#include "rt/scheduler.hpp"

namespace rvk::core {
namespace {

struct Fixture {
  rt::Scheduler sched;
  Engine engine{sched};
  heap::Heap heap;
};

TEST(DedupTest, RepeatedWritesLogOnce) {
  Fixture fx;
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
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  o->set<int>(0, 7);
  int hi_saw = -1;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 50; ++i) o->set<int>(0, 100 + i);  // filtered
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

TEST(DedupTest, RetriedSectionLogsAfresh) {
  // Each attempt runs under a fresh frame id, so a retry never hits the
  // aborted attempt's filter entries: it appends again, and the second
  // revocation restores the pre-section value as the first did.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  o->set<int>(0, 7);
  std::vector<std::size_t> logged;  // log size per attempt
  std::vector<int> hi_saw;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 20; ++i) o->set<int>(0, 100 + i);
      logged.push_back(fx.sched.current_thread()->undo_log.size());
      for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
    });
  });
  for (int h = 0; h < 2; ++h) {
    fx.sched.spawn("hi" + std::to_string(h), 8, [&, h] {
      fx.sched.sleep_for(static_cast<std::uint64_t>(50 + 1000 * h));
      fx.engine.synchronized(*m, [&] { hi_saw.push_back(o->get<int>(0)); });
    });
  }
  fx.sched.run();
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 2u);
  EXPECT_EQ(logged, (std::vector<std::size_t>{1, 1, 1}));
  EXPECT_EQ(hi_saw, (std::vector<int>{7, 7}));
  EXPECT_EQ(o->get<int>(0), 119);
}

TEST(DedupTest, NestedFramesLogPerFrame) {
  // The inner frame must re-log a location the outer frame already logged:
  // an inner rollback restores the OUTER frame's value, not the pre-section
  // value.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* outer = fx.engine.make_monitor("outer");
  RevocableMonitor* inner = fx.engine.make_monitor("inner");
  int inner_runs = 0;
  int seen_by_inner_retry = -1;
  int seen_after_inner_commit = -1;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*outer, [&] {
      o->set<int>(0, 1);     // outer frame logs old value 0
      o->set<int>(0, 2);     // filtered within outer
      fx.engine.synchronized(*inner, [&] {
        if (++inner_runs == 2) seen_by_inner_retry = o->get<int>(0);
        o->set<int>(0, 3);   // inner frame MUST log old value 2
        o->set<int>(0, 4);   // filtered within inner
        if (inner_runs == 1) {
          for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
        }
      });
      seen_after_inner_commit = o->get<int>(0);
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*inner, [] {});  // revokes lo's INNER frame only
  });
  fx.sched.run();
  EXPECT_EQ(inner_runs, 2);
  EXPECT_EQ(seen_by_inner_retry, 2);  // the inner abort restored outer's value
  EXPECT_EQ(seen_after_inner_commit, 4);
  EXPECT_EQ(o->get<int>(0), 4);
}

TEST(DedupTest, ForcedCollisionAppendsDuplicatesAndRollsBack) {
  // Slots 0 and kSlots of one object are kSlots words apart, so they share
  // a filter slot: written alternately, each store evicts the other's entry
  // and appends.  The duplicates replay in reverse, oldest pre-image last.
  constexpr std::size_t kFar = log::WriteFilter::kSlots;
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", kFar + 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  o->set<int>(0, 7);
  o->set<int>(kFar, 8);
  std::size_t first_log = 0;
  int hi_saw_a = -1, hi_saw_b = -1;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 10; ++i) {
        o->set<int>(0, 100 + i);
        o->set<int>(kFar, 200 + i);
      }
      if (first_log == 0) {
        first_log = fx.sched.current_thread()->undo_log.size();
      }
      for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [&] {
      hi_saw_a = o->get<int>(0);
      hi_saw_b = o->get<int>(kFar);
    });
  });
  fx.sched.run();
  EXPECT_EQ(first_log, 20u);  // every store collided and appended
  EXPECT_EQ(hi_saw_a, 7);
  EXPECT_EQ(hi_saw_b, 8);
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 1u);
  EXPECT_EQ(o->get<int>(0), 109);
  EXPECT_EQ(o->get<int>(kFar), 209);
}

TEST(DedupTest, EnginesInTurnNeverSkipAnAppend) {
  // Frame ids restart at 1 in every engine.  A thread that outlives one
  // engine enters frame 1 again under the next and stores to the same word:
  // it must append, or the abort could not restore the value.
  rt::Scheduler sched;
  heap::Heap heap;
  heap::HeapObject* o = heap.alloc("o", 1);
  std::vector<std::uint64_t> ids;
  std::vector<std::size_t> logged;
  sched.spawn("t", rt::kNormPriority, [&] {
    for (int round = 0; round < 2; ++round) {
      Engine engine(sched);
      RevocableMonitor* m = engine.make_monitor("m");
      ids.push_back(engine.section_enter(*m));
      o->set<int>(0, 10 + round);
      logged.push_back(sched.current_thread()->undo_log.size());
      if (round == 0) {
        engine.section_commit();
      } else {
        engine.section_abort();
      }
    }
  });
  sched.run();
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(logged, (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(o->get<int>(0), 10);  // round 1's abort restored round 0's value
}

TEST(DedupTest, FinishedThreadHoldsNoFilter) {
  // The filter is taken at the first logged store, not at spawn, and freed
  // when the thread finishes.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  bool held_before = true, held_after = false;
  rt::VThread* t = fx.sched.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* self = fx.sched.current_thread();
    fx.engine.synchronized(*m, [&] {
      held_before = self->write_filter.holds_storage();
      o->set<int>(0, 1);
      held_after = self->write_filter.holds_storage();
    });
  });
  EXPECT_FALSE(t->write_filter.holds_storage());
  fx.sched.run();
  EXPECT_FALSE(held_before);
  EXPECT_TRUE(held_after);
  // The next spawn reuses the finished thread's block: its filter was
  // freed at the finish.
  rt::VThread* next = fx.sched.spawn("next", rt::kNormPriority, [] {});
  EXPECT_EQ(next, t);
  EXPECT_FALSE(next->write_filter.holds_storage());
  fx.sched.run();
}

TEST(DedupTest, ArraySweepLogBoundedByWorkingSet) {
  Fixture fx;
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
  Fixture fx;
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

}  // namespace
}  // namespace rvk::core
