// Engine: speculative synchronized sections, revocation on priority
// inversion, nesting, commit races, and rollback state restoration.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <vector>

#include "core/engine.hpp"
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

TEST(EngineTest, SectionCommitsWrites) {
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 2);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] {
      o->set<int>(0, 5);
      o->set<int>(1, 6);
    });
  });
  fx.sched.run();
  EXPECT_EQ(o->get<int>(0), 5);
  EXPECT_EQ(o->get<int>(1), 6);
  EXPECT_EQ(fx.engine.stats().sections_committed, 1u);
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 0u);
}

TEST(EngineTest, SyncDepthAndLogLifecycle) {
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = fx.sched.current_thread();
    EXPECT_EQ(t->sync_depth, 0);
    fx.engine.synchronized(*m, [&] {
      EXPECT_EQ(t->sync_depth, 1);
      o->set<int>(0, 1);
      EXPECT_EQ(t->undo_log.size(), 1u);
    });
    EXPECT_EQ(t->sync_depth, 0);
    EXPECT_TRUE(t->undo_log.empty());  // outermost commit discards the log
  });
  fx.sched.run();
}

TEST(EngineTest, PriorityInversionTriggersRevocation) {
  // Figure 1's narrative: low-priority Tl is preempted mid-section, its
  // updates to o1 are undone, and high-priority Th enters first.
  Fixture fx;
  heap::HeapObject* o1 = fx.heap.alloc("o1", 1);
  heap::HeapObject* o2 = fx.heap.alloc("o2", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::vector<char> completion_order;
  int observed_by_hi = -1;
  fx.sched.spawn("Tl", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      o1->set<int>(0, 13);  // partial update that must be revoked
      for (int i = 0; i < 3000; ++i) fx.sched.yield_point();
      o2->set<int>(0, 13);
    });
    completion_order.push_back('l');
  });
  fx.sched.spawn("Th", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [&] {
      observed_by_hi = o1->get<int>(0);  // must NOT see Tl's revoked write
      o1->set<int>(0, 42);
      o2->set<int>(0, 42);
    });
    completion_order.push_back('h');
  });
  fx.sched.run();
  EXPECT_EQ(observed_by_hi, 0);
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], 'h');
  EXPECT_EQ(completion_order[1], 'l');
  // Tl eventually re-executed and committed: final values are Tl's.
  EXPECT_EQ(o1->get<int>(0), 13);
  EXPECT_EQ(o2->get<int>(0), 13);
  const EngineStats& st = fx.engine.stats();
  EXPECT_GE(st.inversions_detected_acquire, 1u);
  EXPECT_GE(st.revocations_requested, 1u);
  EXPECT_EQ(st.rollbacks_completed, 1u);
  EXPECT_GE(st.words_undone, 1u);
}

TEST(EngineTest, EqualPriorityNeverRevokes) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("a", 5, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 500; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.spawn("b", 5, [&] {
    fx.sched.sleep_for(20);
    fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  EXPECT_EQ(fx.engine.stats().revocations_requested, 0u);
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 0u);
}

TEST(EngineTest, LowerPriorityWaitsForHigherOwner) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::vector<char> order;
  fx.sched.spawn("hi", 8, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 500; ++i) fx.sched.yield_point();
    });
    order.push_back('h');
  });
  fx.sched.spawn("lo", 2, [&] {
    fx.sched.sleep_for(20);
    fx.engine.synchronized(*m, [] {});
    order.push_back('l');
  });
  fx.sched.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'h');
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 0u);
}

TEST(EngineTest, RevocationRestoresAllStoreKinds) {
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  heap::HeapArray<int>* arr = fx.heap.alloc_array<int>(8);
  const std::uint32_t sv = fx.heap.statics().define("sv", 100);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  o->set<int>(0, 10);
  arr->set(3, 30);
  int lo_runs = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++lo_runs;
      o->set<int>(0, 11);
      arr->set(3, 31);
      fx.heap.statics().set<int>(sv, 101);
      if (lo_runs == 1) {
        // Only the first execution dawdles (and gets revoked).
        for (int i = 0; i < 3000; ++i) fx.sched.yield_point();
      }
    });
  });
  int hi_o = -1, hi_arr = -1, hi_sv = -1;
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [&] {
      hi_o = o->get<int>(0);
      hi_arr = arr->get(3);
      hi_sv = fx.heap.statics().get<int>(sv);
    });
  });
  fx.sched.run();
  // hi must have seen the PRE-section values: everything was rolled back.
  EXPECT_EQ(hi_o, 10);
  EXPECT_EQ(hi_arr, 30);
  EXPECT_EQ(hi_sv, 100);
  EXPECT_EQ(lo_runs, 2);
  // lo's retry committed afterwards.
  EXPECT_EQ(o->get<int>(0), 11);
  EXPECT_EQ(arr->get(3), 31);
  EXPECT_EQ(fx.heap.statics().get<int>(sv), 101);
}

TEST(EngineTest, NestedSectionsRollBackToOuterTarget) {
  // Revocation targets the *outermost* frame of the contended monitor; the
  // unwind aborts the inner section too and both re-execute.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 2);
  RevocableMonitor* outer = fx.engine.make_monitor("outer");
  RevocableMonitor* inner = fx.engine.make_monitor("inner");
  int outer_runs = 0, inner_runs = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*outer, [&] {
      ++outer_runs;
      o->set<int>(0, outer_runs);
      fx.engine.synchronized(*inner, [&] {
        ++inner_runs;
        o->set<int>(1, inner_runs);
        if (outer_runs == 1) {
          for (int i = 0; i < 3000; ++i) fx.sched.yield_point();
        }
      });
    });
  });
  int hi_saw0 = -1, hi_saw1 = -1;
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*outer, [&] {
      hi_saw0 = o->get<int>(0);
      hi_saw1 = o->get<int>(1);
    });
  });
  fx.sched.run();
  EXPECT_EQ(hi_saw0, 0);  // outer frame's write undone
  EXPECT_EQ(hi_saw1, 0);  // nested frame's write undone as well
  EXPECT_EQ(outer_runs, 2);
  EXPECT_EQ(inner_runs, 2);
  EXPECT_EQ(fx.engine.stats().frames_aborted, 2u);   // inner + outer
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 1u);
}

TEST(EngineTest, ContentionOnInnerMonitorRevokesOnlyInnerFrame) {
  // hi contends on `inner` only: the rollback target is lo's inner frame;
  // the outer section's work survives.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 2);
  RevocableMonitor* outer = fx.engine.make_monitor("outer");
  RevocableMonitor* inner = fx.engine.make_monitor("inner");
  int inner_runs = 0, outer_runs = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*outer, [&] {
      ++outer_runs;
      o->set<int>(0, 7);
      fx.engine.synchronized(*inner, [&] {
        ++inner_runs;
        o->set<int>(1, 8);
        if (inner_runs == 1) {
          for (int i = 0; i < 3000; ++i) fx.sched.yield_point();
        }
      });
    });
  });
  int hi_saw1 = -1;
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*inner, [&] { hi_saw1 = o->get<int>(1); });
  });
  fx.sched.run();
  EXPECT_EQ(hi_saw1, 0);     // inner write undone
  EXPECT_EQ(outer_runs, 1);  // outer never re-executed
  EXPECT_EQ(inner_runs, 2);
  EXPECT_EQ(fx.engine.stats().frames_aborted, 1u);
}

TEST(EngineTest, RecursiveSectionsOnSameMonitor) {
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] {
      fx.engine.synchronized(*m, [&] {
        EXPECT_EQ(m->recursion(), 2);
        o->set<int>(0, 1);
      });
      EXPECT_EQ(m->recursion(), 1);
    });
    EXPECT_EQ(m->owner(), nullptr);
  });
  fx.sched.run();
  EXPECT_EQ(o->get<int>(0), 1);
}

TEST(EngineTest, RevocationOfRecursivelyHeldMonitorTargetsOutermost) {
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 2);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  int outer_runs = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++outer_runs;
      o->set<int>(0, outer_runs);
      fx.engine.synchronized(*m, [&] {  // recursive
        o->set<int>(1, outer_runs);
        if (outer_runs == 1) {
          for (int i = 0; i < 3000; ++i) fx.sched.yield_point();
        }
      });
    });
  });
  int hi_saw = -1;
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [&] { hi_saw = o->get<int>(0); });
  });
  fx.sched.run();
  EXPECT_EQ(hi_saw, 0);
  EXPECT_EQ(outer_runs, 2);
  EXPECT_EQ(o->get<int>(0), 2);
  EXPECT_EQ(o->get<int>(1), 2);
}

TEST(EngineTest, RevocationDeliveredAtResumeOfFinalYieldPoint) {
  // A request posted while the victim sits switched-out at its *last* yield
  // point is still delivered when the victim resumes (delivery happens at
  // the resume side of the yield point), so on this green-thread substrate
  // a posted revocation can never lose the race against monitorexit — code
  // after the final yield point runs without interleaving.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      // Parks at quantum boundaries (default quantum 100); hi's request
      // arrives while lo sits switched-out inside one of these yield
      // points and is delivered on its resume side.
      for (int i = 0; i < 400; ++i) fx.sched.yield_point();
      o->set<int>(0, o->get<int>(0) + 1);
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(150);  // wakes mid-section, at a quantum boundary
    fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  const EngineStats& st = fx.engine.stats();
  EXPECT_EQ(o->get<int>(0), 1);  // re-execution is exactly-once on commit
  EXPECT_EQ(st.rollbacks_completed, 1u);
  EXPECT_EQ(st.revocations_lost_to_commit, 0u);
}

TEST(EngineTest, DetectionModeNoneNeverRevokes) {
  EngineConfig cfg;
  cfg.detection = DetectionMode::kNone;
  Fixture fx(cfg);
  RevocableMonitor* m = fx.engine.make_monitor("m");
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
  EXPECT_EQ(fx.engine.stats().revocations_requested, 0u);
}

TEST(EngineTest, BackgroundDetectionRevokesWithoutNewAcquireAttempts) {
  EngineConfig cfg;
  cfg.detection = DetectionMode::kBackground;
  cfg.background_period = 5;
  rt::SchedulerConfig scfg;
  scfg.quantum = 20;
  Fixture fx(cfg, scfg);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::vector<char> order;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 4000; ++i) fx.sched.yield_point();
    });
    order.push_back('l');
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(30);
    fx.engine.synchronized(*m, [] {});
    order.push_back('h');
  });
  fx.sched.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'h');
  const EngineStats& st = fx.engine.stats();
  EXPECT_GE(st.inversions_detected_background, 1u);
  EXPECT_EQ(st.inversions_detected_acquire, 0u);
  EXPECT_EQ(st.rollbacks_completed, 1u);
}

TEST(EngineTest, RevocationBudgetPinsAfterTooManyRollbacks) {
  EngineConfig cfg;
  cfg.revocation_budget = 2;
  Fixture fx(cfg);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  int lo_runs = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++lo_runs;
      for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
    });
  });
  // A stream of high-priority threads, each forcing a revocation.
  for (int k = 0; k < 4; ++k) {
    fx.sched.spawn("hi" + std::to_string(k), 8, [&, k] {
      fx.sched.sleep_for(40 + 400 * static_cast<std::uint64_t>(k));
      fx.engine.synchronized(*m, [&] {
        for (int i = 0; i < 50; ++i) fx.sched.yield_point();
      });
    });
  }
  fx.sched.run();
  const EngineStats& st = fx.engine.stats();
  EXPECT_LE(st.rollbacks_completed, 2u);
  EXPECT_GE(st.revocations_denied_budget, 1u);
  EXPECT_EQ(lo_runs, static_cast<int>(st.rollbacks_completed) + 1);
}

TEST(EngineTest, UserExceptionReleasesWithoutRollback) {
  // Java semantics: abrupt completion exits the monitor but keeps updates.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  bool caught = false;
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    try {
      fx.engine.synchronized(*m, [&] {
        o->set<int>(0, 77);
        throw std::runtime_error("user error");
      });
    } catch (const std::runtime_error&) {
      caught = true;
    }
    EXPECT_EQ(m->owner(), nullptr);                      // released
    EXPECT_EQ(fx.sched.current_thread()->sync_depth, 0);  // frame popped
  });
  fx.sched.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(o->get<int>(0), 77);  // update survived
}

TEST(EngineTest, CleanupGuardSkippedDuringRollback) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  int cleanup_runs = 0;
  int body_runs = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++body_runs;
      Cleanup guard([&] { ++cleanup_runs; });
      if (body_runs == 1) {
        for (int i = 0; i < 3000; ++i) fx.sched.yield_point();
      }
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  EXPECT_EQ(body_runs, 2);
  // The first execution was revoked: its cleanup must have been suppressed;
  // only the committing execution ran it.
  EXPECT_EQ(cleanup_runs, 1);
}

TEST(EngineTest, MultipleHighPriorityWaitersServedBeforeVictimRetries) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::vector<char> order;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 3000; ++i) fx.sched.yield_point();
    });
    order.push_back('l');
  });
  for (int k = 0; k < 3; ++k) {
    fx.sched.spawn("hi" + std::to_string(k), 8, [&] {
      fx.sched.sleep_for(30);
      fx.engine.synchronized(*m, [&] {
        for (int i = 0; i < 20; ++i) fx.sched.yield_point();
      });
      order.push_back('h');
    });
  }
  fx.sched.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 'h');
  EXPECT_EQ(order[1], 'h');
  EXPECT_EQ(order[2], 'h');
  EXPECT_EQ(order[3], 'l');
}

TEST(EngineTest, RetryBackoffDelaysVictim) {
  EngineConfig cfg;
  cfg.retry_backoff_ticks = 500;
  Fixture fx(cfg);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::uint64_t lo_commit_tick = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 1500; ++i) fx.sched.yield_point();
    });
    lo_commit_tick = fx.sched.now();
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 1u);
  // lo re-ran its 1500-iteration section after a ≥500-tick backoff on top
  // of the ~50 ticks before revocation.
  EXPECT_GE(lo_commit_tick, 2000u);
}

TEST(EngineTest, StatsAggregateLogAppends) {
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 25);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] {
      for (int i = 0; i < 25; ++i) o->set<int>(static_cast<std::size_t>(i), i);
    });
  });
  fx.sched.run();
  EXPECT_EQ(fx.engine.stats().log_appends, 25u);  // 25 distinct slots
}

TEST(EngineTest, LogAppendsCountUndoneAndCommittedEntries) {
  // Every logged entry leaves the log through an abort's replay or the
  // outermost commit, and log_appends counts it there.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 5);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.section_enter(*m);
    for (std::size_t i = 0; i < 3; ++i) o->set<int>(i, 1);
    fx.engine.section_abort();
    fx.engine.synchronized(*m, [&] {
      o->set<int>(3, 1);
      o->set<int>(4, 1);
    });
  });
  fx.sched.run();
  EXPECT_EQ(fx.engine.stats().words_undone, 3u);
  EXPECT_EQ(fx.engine.stats().log_appends, 5u);
  EXPECT_EQ(o->get<int>(0), 0);
  EXPECT_EQ(o->get<int>(4), 1);
}

TEST(EngineTest, HundredThousandRequestThreadsKeepPerThreadStateBounded) {
  // The open-loop shape (DESIGN.md §15): a driver spawns 100k short request
  // threads, 8 at a time, each running one section of 8 read-modify-writes.
  // Control blocks, and the engine state each one carries, are recycled:
  // the scheduler never holds more than the free list's worth of finished
  // blocks, and heap in use stops growing after the first waves (at the
  // ~2 KB per finished thread the engine and scheduler used to keep, it
  // would grow by ~200 MB).
  constexpr int kRequests = 100000;
  constexpr int kWidth = 8;
  constexpr int kWarmup = 1000;
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 8);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::size_t spare_blocks = 0;
  std::size_t heap_warm = 0, heap_end = 0;
  fx.sched.spawn("driver", rt::kNormPriority, [&] {
    std::vector<rt::ThreadId> wave;
    for (int r = 0; r < kRequests; r += kWidth) {
      wave.clear();
      for (int i = 0; i < kWidth; ++i) {
        wave.push_back(fx.sched.spawn("req", rt::kNormPriority, [&] {
          fx.engine.synchronized(*m, [&] {
            for (std::size_t k = 0; k < 8; ++k) {
              o->set<int>(k, o->get<int>(k) + 1);
            }
          });
        })->id());
      }
      for (rt::ThreadId id : wave) fx.sched.join(id);
      spare_blocks = std::max(
          spare_blocks, fx.sched.control_blocks() - fx.sched.live_count());
      if (r == kWarmup) heap_warm = mallinfo2().uordblks;
    }
    heap_end = mallinfo2().uordblks;
  });
  fx.sched.run();
  EXPECT_EQ(o->get<int>(0), kRequests);
  EXPECT_EQ(fx.engine.stats().sections_committed,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(fx.engine.stats().log_appends, 8u * kRequests);
  EXPECT_LE(spare_blocks, rt::Scheduler::kMaxFreeBlocks);
  EXPECT_LE(fx.sched.control_blocks(), rt::Scheduler::kMaxFreeBlocks);
  // mallinfo2 reads glibc's arenas; under a sanitizer's allocator it reads
  // nothing useful, so the bound only applies where it grew from nonzero.
  if (heap_warm != 0) {
    EXPECT_LT(heap_end, heap_warm + (std::size_t{1} << 20));
  }
}

}  // namespace
}  // namespace rvk::core
