// Compact lock words + the MonitorTable side table (DESIGN.md §13):
// encoding round-trips, inflation and release edges, back-link matching,
// slot reuse, and the quiescence predicate's refusal cases.
//
// The table under test is the PROCESS-WIDE MonitorTable::global() — other
// suites in this binary touch it too.  A case that must collect a detached
// slot inflates under its own owner tag and frees it with
// release_slots_owned_by(&tag), and every stats assertion is a delta
// against a snapshot taken after the state it must not count.
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
  LockWord w = LockWord::inflated(42);
  EXPECT_TRUE(w.is_inflated());
  EXPECT_FALSE(w.is_free());
  EXPECT_EQ(w.index(), 42u);

  LockWord zero = LockWord::inflated(0);  // slot 0 is still not free
  EXPECT_TRUE(zero.is_inflated());
  EXPECT_EQ(zero.index(), 0u);

  LockWord last = LockWord::inflated(LockWord::kMaxIndex);
  EXPECT_EQ(last.index(), LockWord::kMaxIndex);
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
  // A word resolves only through the slot's back-link: a copy at another
  // address, or the original after release, reads as free.
  MonitorTable& table = MonitorTable::global();
  LockWord word;
  MonitorBase& m = table.inflate(word, "t");
  const LockWord copy = word;
  EXPECT_TRUE(copy.is_inflated());             // the bits say inflated
  EXPECT_EQ(table.monitor_at(copy), nullptr);  // but the slot names `word`
  EXPECT_EQ(table.monitor_at(word), &m);
  table.release_slot(word);
  EXPECT_TRUE(word.is_free());
  LockWord gone = copy;
  table.release_slot(gone);  // releasing a word the slot does not name
  EXPECT_TRUE(gone.is_free());  // is a harmless no-op that clears it
  EXPECT_EQ(table.monitor_at(copy), nullptr);
}

TEST(MonitorTableTest, DeflationRefusedWhileOwnedOrContended) {
  // A word whose holder dies while its monitor is owned, or contended,
  // must not destroy the slot: release_slot detaches it instead, and the
  // monitor keeps serving the threads that still hold it.
  rt::SchedulerConfig cfg;
  cfg.quantum = 10;
  rt::Scheduler s(cfg);
  MonitorTable& table = MonitorTable::global();
  int tag = 0;
  LockWord owned_word, contended_word;
  MonitorBase& owned = table.inflate(owned_word, "owned", {}, &tag);
  MonitorBase& contended =
      table.inflate(contended_word, "contended", {}, &tag);
  const std::size_t live = table.live_slots();
  bool owner_checked = false, contender_checked = false;
  s.spawn("owner", rt::kNormPriority, [&] {
    owned.acquire();
    contended.acquire();
    table.release_slot(owned_word);  // owned → not quiescent
    EXPECT_TRUE(owned_word.is_free());
    EXPECT_EQ(table.live_slots(), live);  // detached, not destroyed
    owner_checked = true;
    for (int i = 0; i < 50; ++i) s.yield_point();
    // The contender is queued (and in transit) by now.
    contended.release();
    table.release_slot(contended_word);
    EXPECT_EQ(table.live_slots(), live);
    contender_checked = true;
    owned.release();
  });
  s.spawn("contender", rt::kNormPriority, [&] {
    contended.acquire();
    contended.release();
  });
  s.run();
  EXPECT_TRUE(owner_checked);
  EXPECT_TRUE(contender_checked);
  // Everyone is gone, and the owner's teardown collects both slots.
  table.release_slots_owned_by(&tag);
  EXPECT_EQ(table.live_slots(), live - 2);
}

TEST(MonitorTableTest, DeflationRefusedWhileWaiterParked) {
  rt::Scheduler s;
  MonitorTable& table = MonitorTable::global();
  int tag = 0;
  LockWord word;
  MonitorBase& m = table.inflate(word, "t", {}, &tag);
  const std::size_t live = table.live_slots();
  bool woken = false;
  s.spawn("waiter", rt::kNormPriority, [&] {
    m.acquire();
    m.wait();  // releases the monitor; sits in the wait set
    woken = true;
    m.release();
  });
  s.spawn("prober", rt::kNormPriority, [&] {
    s.sleep_for(20);
    // Unowned, empty entry queue — but the wait set is populated.
    EXPECT_FALSE(MonitorTable::quiescent(m));
    table.release_slot(word);
    EXPECT_EQ(table.live_slots(), live);  // detached, not destroyed
    m.acquire();
    m.notify_one();
    m.release();
  });
  s.run();
  EXPECT_TRUE(woken);
  EXPECT_TRUE(MonitorTable::quiescent(m));
  table.release_slots_owned_by(&tag);
  EXPECT_EQ(table.live_slots(), live - 1);
}

TEST(MonitorTableTest, ReinflationReusesReleasedSlot) {
  MonitorTable& table = MonitorTable::global();
  LockWord word;
  table.inflate(word, "t");
  // Snapshot AFTER the first inflation: it may itself have popped a slot an
  // earlier test used, which already counts as a re-inflation.
  const MonitorTableStats before = table.stats();
  const std::uint32_t first_index = word.index();
  table.release_slot(word);  // quiescent → destroyed
  EXPECT_TRUE(word.is_free());

  LockWord word2;
  MonitorBase& m2 = table.inflate(word2, "t2");
  EXPECT_EQ(word2.index(), first_index);  // pooled: same slot returns
  EXPECT_EQ(table.stats().re_inflations, before.re_inflations + 1);
  // The old word's bits may name the slot again; only word2 resolves.
  EXPECT_EQ(table.monitor_at(LockWord::inflated(first_index)), nullptr);
  EXPECT_EQ(table.monitor_at(word2), &m2);
  table.release_slot(word2);
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
  EXPECT_NE(reg.find("montable.re_inflations"), nullptr);
  EXPECT_NE(reg.find("montable.live_high_water"), nullptr);
}

}  // namespace
}  // namespace rvk::monitor
