// Compact lock words + the MonitorTable side table (DESIGN.md §13):
// encoding round-trips, inflation/deflation edges, generation staleness,
// slot reuse, and the quiescence predicate's refusal cases.
//
// The table under test is the PROCESS-WIDE MonitorTable::global() — other
// suites in this binary touch it too.  Each case therefore inflates under
// its own owner tag and deflates with scavenge(&tag), which sweeps only that
// tag's slots, and every stats assertion is a delta against a snapshot
// taken after the state it must not count.
#include <gtest/gtest.h>

#include "monitor/lock_word.hpp"
#include "monitor/monitor_table.hpp"
#include "obs/metrics.hpp"
#include "rt/scheduler.hpp"

namespace rvk::monitor {
namespace {

TEST(LockWordTest, DefaultIsFree) {
  LockWord w;
  EXPECT_TRUE(w.is_free());
  EXPECT_FALSE(w.is_inflated());
  EXPECT_EQ(w.raw(), 0u);
}

TEST(LockWordTest, InflatedEncodingRoundTrips) {
  LockWord w = LockWord::inflated(42, 9);
  EXPECT_TRUE(w.is_inflated());
  EXPECT_FALSE(w.is_free());
  EXPECT_EQ(w.index(), 42u);
  EXPECT_EQ(w.generation(), 9u);

  LockWord last =
      LockWord::inflated(LockWord::kMaxIndex, LockWord::kMaxGeneration);
  EXPECT_EQ(last.index(), LockWord::kMaxIndex);
  EXPECT_EQ(last.generation(), LockWord::kMaxGeneration);
}

// ---- Table behaviour ----

TEST(MonitorTableTest, InflateFreeWordBuildsUnownedMonitor) {
  MonitorTable& table = MonitorTable::global();
  const MonitorTableStats before = table.stats();
  LockWord word;
  MonitorBase& m = table.inflate(word, "t");
  EXPECT_TRUE(word.is_inflated());
  EXPECT_EQ(table.monitor_at(word), &m);
  EXPECT_EQ(m.owner(), nullptr);  // inflation never transfers a hold
  EXPECT_EQ(table.stats().inflations, before.inflations + 1);
  table.release_slot(word);
  EXPECT_TRUE(word.is_free());
}

TEST(MonitorTableTest, StaleWordReadsAsFree) {
  MonitorTable& table = MonitorTable::global();
  LockWord word;
  table.inflate(word, "t");
  const LockWord stale = word;  // survives the slot
  table.release_slot(word);
  EXPECT_TRUE(stale.is_inflated());             // the bits still say inflated
  EXPECT_EQ(table.monitor_at(stale), nullptr);  // but the generation moved on
  LockWord gone = stale;
  table.release_slot(gone);  // releasing a stale word is a harmless no-op
  EXPECT_TRUE(gone.is_free());
}

TEST(MonitorTableTest, DeflationRefusedWhileOwnedOrContended) {
  rt::SchedulerConfig cfg;
  cfg.quantum = 10;
  rt::Scheduler s(cfg);
  MonitorTable& table = MonitorTable::global();
  int tag = 0;
  LockWord word;
  bool owner_checked = false, contender_checked = false;
  s.spawn("owner", rt::kNormPriority, [&] {
    MonitorBase& m = table.inflate(word, "t", {}, &tag);
    m.acquire();
    EXPECT_EQ(table.scavenge(&tag), 0u);  // owned → not quiescent
    owner_checked = true;
    for (int i = 0; i < 50; ++i) s.yield_point();
    // The contender is queued (and in transit) by now: still refused.
    EXPECT_EQ(table.scavenge(&tag), 0u);
    contender_checked = true;
    m.release();
  });
  s.spawn("contender", rt::kNormPriority, [&] {
    MonitorBase* m = table.monitor_at(word);
    ASSERT_NE(m, nullptr);
    m->acquire();
    m->release();
  });
  s.run();
  EXPECT_TRUE(owner_checked);
  EXPECT_TRUE(contender_checked);
  // Everyone is gone: now it deflates.
  EXPECT_EQ(table.scavenge(&tag), 1u);
  EXPECT_TRUE(word.is_free());
}

TEST(MonitorTableTest, DeflationRefusedWhileWaiterParked) {
  rt::Scheduler s;
  MonitorTable& table = MonitorTable::global();
  int tag = 0;
  LockWord word;
  bool woken = false;
  s.spawn("waiter", rt::kNormPriority, [&] {
    MonitorBase& m = table.inflate(word, "t", {}, &tag);
    m.acquire();
    m.wait();  // releases the monitor; sits in the wait set
    woken = true;
    m.release();
  });
  s.spawn("prober", rt::kNormPriority, [&] {
    s.sleep_for(20);
    // Unowned, empty entry queue — but the wait set is populated: refused.
    EXPECT_EQ(table.scavenge(&tag), 0u);
    MonitorBase* m = table.monitor_at(word);
    ASSERT_NE(m, nullptr);
    m->acquire();
    m->notify_one();
    m->release();
  });
  s.run();
  EXPECT_TRUE(woken);
  EXPECT_EQ(table.scavenge(&tag), 1u);
  EXPECT_TRUE(word.is_free());
}

TEST(MonitorTableTest, ReleaseSlotDetachesBusySlotForLaterScavenge) {
  rt::Scheduler s;
  MonitorTable& table = MonitorTable::global();
  int tag = 0;
  LockWord word;
  s.spawn("t", rt::kNormPriority, [&] {
    MonitorBase& m = table.inflate(word, "t", {}, &tag);
    m.acquire();
    const std::size_t live = table.live_slots();
    // The word's holder dies while the monitor is busy: quiesce-or-detach
    // keeps the slot alive (destroying it under an owner would be a UAF).
    table.release_slot(word);
    EXPECT_TRUE(word.is_free());
    EXPECT_EQ(table.live_slots(), live);  // detached, not destroyed
    EXPECT_EQ(table.scavenge(&tag), 0u);  // still owned → still refused
    m.release();
    // Now quiescent: the sweep finds the detached slot and reclaims it.
    EXPECT_EQ(table.scavenge(&tag), 1u);
    EXPECT_EQ(table.live_slots(), live - 1);
  });
  s.run();
}

TEST(MonitorTableTest, ReinflationReusesScavengedSlot) {
  MonitorTable& table = MonitorTable::global();
  int tag = 0;
  LockWord word;
  table.inflate(word, "t", {}, &tag);
  // Snapshot AFTER the first inflation: it may itself have popped a slot an
  // earlier test used, which already counts as a re-inflation.
  const MonitorTableStats before = table.stats();
  const std::uint32_t first_index = word.index();
  const std::uint64_t first_gen = word.generation();
  ASSERT_EQ(table.scavenge(&tag), 1u);
  EXPECT_TRUE(word.is_free());
  EXPECT_EQ(table.stats().deflations, before.deflations + 1);

  LockWord word2;
  table.inflate(word2, "t2", {}, &tag);
  EXPECT_EQ(word2.index(), first_index);      // pooled: same slot returns
  EXPECT_NE(word2.generation(), first_gen);   // ...at a new generation
  EXPECT_EQ(table.stats().re_inflations, before.re_inflations + 1);
  table.release_slot(word2);
}

TEST(MonitorTableTest, GenerationCeilingRetiresTheSlot) {
  // Cycling ONE slot through its entire 12-bit generation budget must end
  // with the slot retired (never recycled), so a stale word can never
  // falsely match a re-tenanted slot — the invariant that keeps the narrow
  // generation field sound.
  MonitorTable& table = MonitorTable::global();
  int tag = 0;
  LockWord word;
  table.inflate(word, "g", {}, &tag);
  const std::uint32_t index = word.index();
  LockWord stale_first = word;  // generation 1 word, held across the cycles
  std::uint32_t cycles = 0;
  while (true) {
    ASSERT_EQ(table.scavenge(&tag), 1u);
    ++cycles;
    table.inflate(word, "g", {}, &tag);
    if (word.index() != index) break;  // the slot retired; a fresh one opened
    ASSERT_LT(cycles, 2u * LockWord::kMaxGeneration);  // must terminate
    EXPECT_EQ(table.monitor_at(stale_first), nullptr);
  }
  // Earlier tests may have pre-aged the slot this test popped, so the exact
  // cycle count is "whatever was left of the budget" — only its bound is
  // deterministic.
  EXPECT_LE(cycles, LockWord::kMaxGeneration);
  EXPECT_EQ(table.monitor_at(stale_first), nullptr);  // retired forever
  table.release_slot(word);
}

TEST(MonitorTableTest, VetoBlocksDeflation) {
  // A veto is keyed by the owner tag its slots carry (an engine registers
  // one for the monitors it inflates); this tag stands in for it.
  MonitorTable& table = MonitorTable::global();
  int owner = 0;
  LockWord word;
  table.inflate(word, "t", {}, &owner);
  table.set_deflate_veto(&owner, [](const MonitorBase&) { return false; });
  EXPECT_EQ(table.scavenge(&owner), 0u);  // quiescent, but vetoed
  table.scavenge();  // the whole-table sweep consults the tag's veto too
  EXPECT_NE(table.monitor_at(word), nullptr);
  table.set_deflate_veto(&owner, {});
  EXPECT_EQ(table.scavenge(&owner), 1u);
  EXPECT_TRUE(word.is_free());
}

TEST(MonitorTableTest, StatsPublishToRegistry) {
  MonitorTable& table = MonitorTable::global();
  LockWord word;
  table.inflate(word, "t");
  table.release_slot(word);

  obs::Registry reg;
  obs::publish(reg, table.stats());
  const obs::Registry::Entry* inf = reg.find("montable.inflations");
  ASSERT_NE(inf, nullptr);
  EXPECT_GE(inf->value, 1u);
  EXPECT_NE(reg.find("montable.deflations"), nullptr);
  EXPECT_NE(reg.find("montable.live_high_water"), nullptr);
}

}  // namespace
}  // namespace rvk::monitor
