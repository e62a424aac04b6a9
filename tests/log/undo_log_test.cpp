// UndoLog: the sequential buffer of §3.1.2 and its reverse replay.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "log/undo_log.hpp"

namespace rvk::log {
namespace {

TEST(UndoLogTest, StartsEmpty) {
  UndoLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.watermark(), 0u);
}

TEST(UndoLogTest, RecordAndRollbackSingleEntry) {
  UndoLog log;
  Word slot = 10;
  log.record(&slot, slot);
  slot = 99;
  log.rollback_to(0);
  EXPECT_EQ(slot, 10u);
  EXPECT_TRUE(log.empty());
}

TEST(UndoLogTest, ReverseReplayRestoresOldestValue) {
  // Multiple writes to the same location: the oldest logged value must win
  // (it is replayed last).
  UndoLog log;
  Word slot = 1;
  log.record(&slot, slot);
  slot = 2;
  log.record(&slot, slot);
  slot = 3;
  log.record(&slot, slot);
  slot = 4;
  log.rollback_to(0);
  EXPECT_EQ(slot, 1u);
}

TEST(UndoLogTest, WatermarkRollbackIsPartial) {
  // Nested frames: inner frame's rollback must not disturb outer entries.
  UndoLog log;
  Word a = 100, b = 200;
  log.record(&a, a);  // outer write
  a = 111;
  const std::size_t inner_mark = log.watermark();
  log.record(&b, b);  // inner write
  b = 222;
  log.rollback_to(inner_mark);
  EXPECT_EQ(b, 200u);   // inner undone
  EXPECT_EQ(a, 111u);   // outer intact
  EXPECT_EQ(log.size(), inner_mark);
  log.rollback_to(0);
  EXPECT_EQ(a, 100u);
}

TEST(UndoLogTest, NestedCommitLeavesEntriesForOuterRollback) {
  // An inner frame that *commits* leaves its entries speculative; a later
  // rollback of the outer frame undoes them too.
  UndoLog log;
  Word a = 1, b = 2;
  log.record(&a, a);
  a = 10;
  // inner frame: record, then "commit" = do nothing to the log
  log.record(&b, b);
  b = 20;
  // outer rollback
  log.rollback_to(0);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
}

TEST(UndoLogTest, DiscardAllCommits) {
  UndoLog log;
  Word slot = 5;
  log.record(&slot, slot);
  slot = 6;
  log.discard_all();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(slot, 6u);  // value untouched
}

TEST(UndoLogTest, EntriesCarrySlotAndOldValue) {
  // §3.1.2 records (reference, offset, old value); every slot here is a
  // Word, so the slot address stands for (reference, offset).
  UndoLog log;
  Word field = 7;
  log.record(&field, field);
  const Entry& e = log.entry(0);
  EXPECT_EQ(e.addr, &field);
  EXPECT_EQ(e.old_value, 7u);
}

TEST(UndoLogTest, StatsTrackTraffic) {
  UndoLog log;
  Word s = 0;
  for (int i = 0; i < 10; ++i) {
    log.record(&s, s);
    s = static_cast<Word>(i);
  }
  log.rollback_to(4);
  log.discard_all();
  const LogStats& st = log.stats();
  EXPECT_EQ(st.appends, 10u);
  EXPECT_EQ(st.words_undone, 6u);
  EXPECT_EQ(st.rollbacks, 1u);
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(st.high_water, 10u);
}

TEST(UndoLogTest, GrowsBeyondInitialCapacity) {
  UndoLog log(4);
  std::array<Word, 1000> slots{};
  for (std::size_t i = 0; i < slots.size(); ++i) {
    log.record(&slots[i], i);
    slots[i] = 12345;
  }
  EXPECT_EQ(log.size(), 1000u);
  log.rollback_to(0);
  for (std::size_t i = 0; i < slots.size(); ++i) EXPECT_EQ(slots[i], i);
}

// ---- Chunked-arena behaviour (DESIGN.md §8) ----

TEST(UndoLogTest, EntryAddressesStableAcrossGrowth) {
  // The arena contract heap/ and core/ rely on: a reference taken from
  // entry() must survive arbitrary later appends (growth opens new chunks,
  // never copies old ones).
  UndoLog log(4);  // reserve almost nothing up front
  Word s = 0;
  log.record(&s, 42);
  const Entry* first = &log.entry(0);
  for (std::size_t i = 0; i < 3 * UndoLog::kChunkEntries; ++i) {
    log.record(&s, i);
  }
  EXPECT_EQ(first, &log.entry(0));
  EXPECT_EQ(first->addr, &s);
  EXPECT_EQ(first->old_value, 42u);
}

TEST(UndoLogTest, RollbackAcrossChunkBoundary) {
  UndoLog log;
  const std::size_t n = UndoLog::kChunkEntries + 100;
  std::vector<Word> slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots[i] = i;
    log.record(&slots[i], slots[i]);
    slots[i] = 0;
  }
  EXPECT_EQ(log.size(), n);
  log.rollback_to(0);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(slots[i], i);
  EXPECT_TRUE(log.empty());
}

TEST(UndoLogTest, WatermarkAtExactChunkBoundary) {
  // A frame whose watermark lands exactly on a chunk edge: the partial
  // rollback must stop on the edge, and appends must resume growing from it.
  UndoLog log;
  std::vector<Word> slots(UndoLog::kChunkEntries + 50);
  for (std::size_t i = 0; i < UndoLog::kChunkEntries; ++i) {
    log.record(&slots[i], 1);
    slots[i] = 9;
  }
  const std::size_t mark = log.watermark();
  ASSERT_EQ(mark, UndoLog::kChunkEntries);
  for (std::size_t i = 0; i < 50; ++i) {
    log.record(&slots[mark + i], 2);
    slots[mark + i] = 9;
  }
  log.rollback_to(mark);
  EXPECT_EQ(log.size(), mark);
  EXPECT_EQ(slots[mark], 2u);      // inner frame undone
  EXPECT_EQ(slots[mark - 1], 9u);  // outer frame untouched
  // The log must keep working past the boundary cursor.
  log.record(&slots[mark], slots[mark]);
  EXPECT_EQ(log.size(), mark + 1);
  EXPECT_EQ(log.entry(mark).old_value, 2u);
}

TEST(UndoLogTest, ChunksReleasedToPoolAcrossCommit) {
  // discard_all() parks retired chunks on the per-thread pool (keeping the
  // active one): a steady-state section sized like the previous one never
  // touches the allocator — its chunks come back from the pool.
  UndoLog log(4);
  Word s = 0;
  for (std::size_t i = 0; i < 2 * UndoLog::kChunkEntries; ++i) {
    log.record(&s, 0);
  }
  const std::size_t cap = log.capacity();
  EXPECT_GE(cap, 2 * UndoLog::kChunkEntries);
  const std::size_t pooled_before = detail::pooled_chunk_count();
  log.discard_all();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.capacity(), UndoLog::kChunkEntries);  // active chunk kept
  EXPECT_GT(detail::pooled_chunk_count(), pooled_before);
  const std::size_t pooled_full = detail::pooled_chunk_count();
  for (std::size_t i = 0; i < 2 * UndoLog::kChunkEntries; ++i) {
    log.record(&s, 0);
  }
  EXPECT_EQ(log.capacity(), cap);  // regrown from the pool
  EXPECT_LT(detail::pooled_chunk_count(), pooled_full);
}

TEST(UndoLogTest, DestructorReturnsChunksToPool) {
  // The log may draw its chunks FROM the per-thread pool (earlier tests in
  // this process leave it non-empty), so the count's net change across the
  // whole scope proves nothing.  Measure the destructor's own contribution:
  // the pooled count just before the log dies.  Growing took two chunks
  // (pooled or fresh) and discard_all returned one, so the pool sits below
  // its cap and the destructor's one chunk must land in it.
  std::size_t pooled_before_death = 0;
  {
    UndoLog log(4);
    Word s = 0;
    for (std::size_t i = 0; i < UndoLog::kChunkEntries + 1; ++i) {
      log.record(&s, 0);
    }
    log.discard_all();  // still holds the active chunk
    ASSERT_EQ(log.capacity(), UndoLog::kChunkEntries);
    pooled_before_death = detail::pooled_chunk_count();
  }
  EXPECT_EQ(detail::pooled_chunk_count(), pooled_before_death + 1);
}

TEST(UndoLogTest, RollbackReleasesRetiredChunks) {
  UndoLog log(4);
  Word s = 0;
  for (std::size_t i = 0; i < 3 * UndoLog::kChunkEntries; ++i) {
    log.record(&s, 0);
  }
  EXPECT_GE(log.capacity(), 3 * UndoLog::kChunkEntries);
  log.rollback_to(1);  // keeps one live entry in chunk 0
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.capacity(), UndoLog::kChunkEntries);
  // The log keeps working past the trim: refill across the boundary.
  for (std::size_t i = 0; i < UndoLog::kChunkEntries; ++i) {
    log.record(&s, 0);
  }
  EXPECT_EQ(log.size(), UndoLog::kChunkEntries + 1);
  EXPECT_EQ(log.entry(UndoLog::kChunkEntries).old_value, 0u);
}

TEST(UndoLogTest, StatsIsConstAndFoldsLiveHighWater) {
  UndoLog log;
  Word s = 0;
  for (int i = 0; i < 7; ++i) {
    log.record(&s, 0);
  }
  // No cold path (growth/rollback/commit) has run since the appends: the
  // snapshot must still report the live size as the high water.
  const UndoLog& clog = log;
  EXPECT_EQ(clog.stats().high_water, 7u);
  log.rollback_to(3);
  EXPECT_EQ(clog.stats().high_water, 7u);  // sticky across truncation
}

TEST(UndoLogTest, ForEachAboveReverseVisitsNewestFirst) {
  UndoLog log;
  Word s = 0;
  for (Word v = 0; v < 5; ++v) {
    log.record(&s, v);
  }
  std::vector<Word> seen;
  log.for_each_above_reverse(2, [&](const Entry& e) {
    seen.push_back(e.old_value);
  });
  EXPECT_EQ(seen, (std::vector<Word>{4, 3, 2}));
}

TEST(UndoLogTest, RollbackToCurrentWatermarkIsNoop) {
  UndoLog log;
  Word s = 1;
  log.record(&s, s);
  s = 2;
  log.rollback_to(log.watermark());
  EXPECT_EQ(s, 2u);
  EXPECT_EQ(log.size(), 1u);
}

TEST(UndoLogTest, ReleaseStorageKeepsStatsAndLeavesAReusableLog) {
  UndoLog log;
  Word x = 1;
  log.record(&x, x);
  log.record(&x, x);
  log.release_storage();
  EXPECT_EQ(log.capacity(), 0u);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.stats().appends, 2u);
  EXPECT_EQ(log.stats().high_water, 2u);
  // The next store reopens a chunk.
  log.record(&x, 7);
  EXPECT_EQ(log.capacity(), UndoLog::kChunkEntries);
  log.rollback_to(0);
  EXPECT_EQ(x, 7u);
  EXPECT_EQ(log.stats().appends, 3u);
}

}  // namespace
}  // namespace rvk::log
