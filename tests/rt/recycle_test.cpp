// Finished threads recycle their execution resources (DESIGN.md §11, §15):
// the stack mapping returns to the OS thread's stack pool, every undo-log
// chunk to its chunk pool and the control block to the scheduler's free
// list, so an open-loop run that spawns one short thread per request keeps
// memory O(live threads) and spawns without mmap or a block allocation.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "log/undo_log.hpp"
#include "rt/scheduler.hpp"
#include "rt/stack.hpp"

namespace rvk::rt {
namespace {

// Logs one store the way the write barrier does, so the thread owns a chunk.
void log_one_store(log::Word* slot) {
  current_vthread()->undo_log.record(slot, *slot);
  ++*slot;
}

TEST(RecycleTest, TenThousandShortThreadsStayBounded) {
  // Waves of kWidth live children, fewer than the stack pool's 64 slots: from
  // the second wave on, every spawn must be served from the pool and every
  // finish must refill it, so the pooled count is the same after each wave.
  constexpr int kWaves = 320;
  constexpr int kWidth = 32;
  Scheduler s;
  log::Word slot = 0;
  std::size_t steady_pool = 0;
  std::set<const void*> bases;
  std::set<const VThread*> blocks;
  s.spawn("driver", kNormPriority, [&] {
    std::vector<ThreadId> wave;
    for (int w = 0; w < kWaves; ++w) {
      wave.clear();
      for (int i = 0; i < kWidth; ++i) {
        VThread* c = s.spawn("c", kNormPriority, [&] {
          log_one_store(&slot);
          // A recycled block starts with fresh statistics.
          EXPECT_EQ(current_vthread()->undo_log.stats().appends, 1u);
          EXPECT_LE(log::detail::pooled_chunk_count(), 16u);
        });
        bases.insert(c->stack()->base());
        blocks.insert(c);
        wave.push_back(c->id());
      }
      for (ThreadId c : wave) s.join(c);
      // The wave's blocks sit on the free list holding no stack and no log
      // storage; the live table holds only the driver.
      EXPECT_EQ(s.live_count(), 1u);
      EXPECT_LE(s.control_blocks(), 1u + Scheduler::kMaxFreeBlocks);
      EXPECT_LE(log::detail::pooled_chunk_count(), 16u);
      if (w == 0) {
        steady_pool = detail::pooled_stack_count();
        EXPECT_GE(steady_pool, static_cast<std::size_t>(kWidth));
      } else {
        ASSERT_EQ(detail::pooled_stack_count(), steady_pool) << "wave " << w;
      }
    }
  });
  s.run();
  EXPECT_EQ(slot, static_cast<log::Word>(kWaves * kWidth));
  EXPECT_EQ(s.stacks_reclaimed(), kWaves * kWidth + 1u);
  // Live mappings stayed flat: the children of all waves ran on at most a
  // pool's worth of mappings plus the first wave's.
  EXPECT_LE(bases.size(), 64u + kWidth);
  // Every wave after the first reused the first wave's control blocks.
  EXPECT_EQ(blocks.size(), static_cast<std::size_t>(kWidth));
}

TEST(RecycleTest, RecycledBlockGetsAFreshIdAndJoinSeesTheOldOneFinished) {
  Scheduler s;
  VThread* first = s.spawn("first", 3, [] {});
  const ThreadId first_id = first->id();
  s.run();
  EXPECT_EQ(s.find(first_id), nullptr);
  bool joined = false;
  VThread* second = s.spawn("second", 7, [&] {
    // Joining the finished thread returns at once, although its block now
    // hosts this (unfinished) thread.
    s.join(first_id);
    joined = true;
  });
  EXPECT_EQ(second, first);  // the block came off the free list...
  EXPECT_GT(second->id(), first_id);  // ...under a new id
  EXPECT_EQ(second->name(), "second");
  EXPECT_EQ(second->priority(), 7);
  EXPECT_EQ(second->state(), ThreadState::kRunnable);
  EXPECT_EQ(s.find(second->id()), second);
  s.run();
  EXPECT_TRUE(joined);
}

TEST(RecycleTest, LiveTableStaysInIdOrderAcrossHolesAndCompaction) {
  Scheduler s;
  std::vector<ThreadId> ids;
  std::vector<ThreadId> seen;
  s.spawn("driver", kNormPriority, [&] {
    // Threads finish out of spawn order (three in four at once, the rest
    // after a sleep), leaving more holes than live entries, which
    // compaction must squeeze without reordering the survivors.
    for (int i = 0; i < 40; ++i) {
      const bool sleeper = i % 4 == 0;
      ids.push_back(s.spawn("t", kNormPriority, [&s, sleeper] {
                      if (sleeper) s.sleep_for(1000);
                    })->id());
    }
    s.sleep_for(10);
    for (VThread* t : s.threads()) seen.push_back(t->id());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(s.find(ids[i]) != nullptr, i % 4 == 0) << i;
    }
  });
  s.run();
  std::vector<ThreadId> expect{1};  // the driver
  for (std::size_t i = 0; i < ids.size(); i += 4) expect.push_back(ids[i]);
  EXPECT_EQ(seen, expect);
  EXPECT_TRUE(s.threads().empty());
}

TEST(RecycleTest, FreeListIsBoundedAndStaleTimersNeverOutliveTheirBlock) {
  // More threads than the free list holds finish together, so most blocks
  // are freed.  Each was woken early from a timed block, leaving a stale
  // deadline-heap entry that names it; freeing the block must drop those
  // entries (ASan would flag the heap's later generation check otherwise).
  constexpr int kThreads = 3 * static_cast<int>(Scheduler::kMaxFreeBlocks);
  Scheduler s;
  WaitQueue q;
  int woken = 0;
  for (int i = 0; i < kThreads; ++i) {
    s.spawn("waiter", kNormPriority, [&] {
      if (s.block_current_on_for(q, 1000000)) ++woken;
    });
  }
  s.spawn("waker", kNormPriority, [&] {
    s.sleep_for(10);
    s.wake_all(q);
  });
  s.run();
  EXPECT_EQ(woken, kThreads);
  EXPECT_EQ(s.control_blocks(), Scheduler::kMaxFreeBlocks);
  // The idle clock was never dragged to the stale deadlines.
  EXPECT_LT(s.now(), 1000000u);
  // A later thread sleeping past them still wakes on its own deadline.
  std::uint64_t woke_at = 0;
  s.spawn("late", kNormPriority, [&] {
    s.sleep_for(2000000);
    woke_at = s.now();
  });
  s.run();
  EXPECT_GE(woke_at, 2000000u);
}

TEST(RecycleTest, EscapedExceptionsSurfaceOneRunAtATimeInFinishOrder) {
  Scheduler s;
  s.spawn("late", kNormPriority, [&] {
    s.yield_now();
    throw std::runtime_error("second");
  });
  s.spawn("early", kNormPriority, [] { throw std::runtime_error("first"); });
  try {
    s.run();
    FAIL() << "no exception surfaced";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // Both blocks are free by now; the second exception was kept anyway.
  s.spawn("reuser", kNormPriority, [] {});
  try {
    s.run();
    FAIL() << "second exception lost";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "second");
  }
  s.run();  // nothing left
}

TEST(RecycleTest, SchedulerDeathFreesPooledChunks) {
  log::Word slot = 0;
  {
    Scheduler s;
    for (int i = 0; i < 4; ++i) {
      s.spawn("t", kNormPriority, [&] { log_one_store(&slot); });
    }
    s.run();
    EXPECT_GE(log::detail::pooled_chunk_count(), 1u);
  }
  EXPECT_EQ(log::detail::pooled_chunk_count(), 0u);
}

// gtest runs *DeathTest suites first, so even in a one-process run this
// thread's stack pool has room for the first thread's mapping.
TEST(StackRecycleDeathTest, RecycledStackKeepsItsGuardPage) {
  Scheduler s;
  const void* base = s.spawn("first", kNormPriority, [] {})->stack()->base();
  s.run();
  const std::size_t pooled = detail::pooled_stack_count();
  VThread* second = s.spawn("second", kNormPriority, [] {
    // One byte below the usable range is the guard page.
    auto* guard = static_cast<volatile char*>(
                      current_vthread()->stack()->base()) - 1;
    *guard = 1;
  });
  ASSERT_EQ(second->stack()->base(), base);  // the recycled mapping
  EXPECT_EQ(detail::pooled_stack_count(), pooled - 1);
  EXPECT_DEATH(s.run(), "");
}

}  // namespace
}  // namespace rvk::rt
