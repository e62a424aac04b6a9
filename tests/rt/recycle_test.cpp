// Finished threads recycle their execution resources (DESIGN.md §11, §15):
// the stack mapping returns to the OS thread's stack pool and every undo-log
// chunk to its chunk pool, so an open-loop run that spawns one short thread
// per request keeps memory O(live threads) and spawns without mmap.
#include <gtest/gtest.h>

#include <set>
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
  s.spawn("driver", kNormPriority, [&] {
    std::vector<VThread*> wave;
    for (int w = 0; w < kWaves; ++w) {
      wave.clear();
      for (int i = 0; i < kWidth; ++i) {
        VThread* c = s.spawn("c", kNormPriority, [&] {
          log_one_store(&slot);
          EXPECT_LE(log::detail::pooled_chunk_count(), 16u);
        });
        bases.insert(c->stack()->base());
        wave.push_back(c);
      }
      for (VThread* c : wave) {
        s.join(c);
        // The release kept the statistics and dropped the storage.
        EXPECT_EQ(c->undo_log.capacity(), 0u);
        EXPECT_TRUE(c->undo_log.empty());
        EXPECT_EQ(c->undo_log.stats().appends, 1u);
        EXPECT_EQ(c->undo_log.stats().high_water, 1u);
        EXPECT_EQ(c->stack(), nullptr);
      }
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
  VThread* first = s.spawn("first", kNormPriority, [] {});
  const void* base = first->stack()->base();
  s.run();
  ASSERT_EQ(first->stack(), nullptr);
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
