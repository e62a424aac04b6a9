// Engine-level abortable section entry (DESIGN.md §14): try_synchronized /
// try_section_enter composing with the biased lazy fast path (§11),
// rollback retries sharing one absolute deadline, timeout while the holder
// is being revoked, and cancellation of a reserved waiter through the full
// engine protocol.  Deterministic virtual-clock assertions only (CLAUDE.md).
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/revocable_monitor.hpp"
#include "heap/heap.hpp"
#include "monitor/monitor.hpp"
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

TEST(TrySectionTest, UncontendedEntryCommitsLikeSynchronized) {
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  bool ok = false;
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    ok = fx.engine.try_synchronized(*m, 0, [&] { o->set<int>(0, 7); });
  });
  fx.sched.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(o->get<int>(0), 7);
  EXPECT_EQ(fx.engine.stats().sections_committed, 1u);
  EXPECT_EQ(fx.engine.stats().entry_aborts, 0u);
}

TEST(TrySectionTest, BiasedLazyFastPathServesUncancelledRepeatEntry) {
  // Second entry rides the §11 biased lazy fast path — bias counters prove
  // it — and a ticks budget of 0 doesn't matter because the grant is
  // immediate.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  int runs = 0;
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] { ++runs; });  // latches the bias
    EXPECT_TRUE(fx.engine.try_synchronized(*m, 0, [&] { ++runs; }));
  });
  fx.sched.run();
  EXPECT_EQ(runs, 2);
  EXPECT_GE(m->stats().bias_grants, 1u);
}

TEST(TrySectionTest, PendingCancelRefusesEvenTheBiasedGrant) {
  // A cancelled thread must not slip into a section through the bias: the
  // lazy gate re-checks cancel_requested when entry has a deadline (a
  // blocking entry ignores it).
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  bool ok = true;
  int runs = 0;
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] { ++runs; });  // latches the bias
    monitor::MonitorBase::cancel(fx.sched.current_thread());
    ok = fx.engine.try_synchronized(*m, 100, [&] { ++runs; });
    monitor::MonitorBase::clear_cancel(fx.sched.current_thread());
  });
  fx.sched.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(fx.engine.stats().entry_aborts, 1u);
  EXPECT_EQ(m->stats().cancels, 1u);
  // The ledger must not have opened a frame for the refused entry.
  EXPECT_EQ(fx.engine.stats().sections_entered,
            fx.engine.stats().sections_committed);
}

TEST(TrySectionTest, TimesOutWhileHolderIsRevoked) {
  // W's deadline expires in the middle of the revocation dance: L (the
  // holder) is revoked on H's behalf, the rollback release reserves the
  // monitor for H — and W's timer fires against a monitor that is either
  // reserved for someone else or held by H for the rest of W's budget.  W
  // must abandon cleanly without disturbing H's reservation.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  bool w_got = true;
  bool h_ran = false;
  std::uint64_t start = 0, woke = 0;
  // W sits BELOW L so its own contention does not revoke L (§4 revokes only
  // on behalf of a higher-priority acquirer); only H's arrival does.
  fx.sched.spawn("L", 5, [&] {
    fx.engine.synchronized(*m, [&] {
      fx.sched.sleep_for(2);  // held: lets W park below us
      for (int i = 0; i < 40; ++i) fx.sched.yield_now();
    });
  });
  fx.sched.spawn("W", 3, [&] {
    start = fx.sched.now();
    w_got = fx.engine.try_synchronized(*m, 10, [] {});
    woke = fx.sched.now();
  });
  fx.sched.spawn("H", 8, [&] {
    fx.sched.sleep_for(4);  // arrive while L is mid-section
    fx.engine.synchronized(*m, [&] {
      h_ran = true;
      // Hold past W's whole budget so no window lets W slip in.
      for (int i = 0; i < 30; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.run();
  EXPECT_FALSE(w_got);
  EXPECT_TRUE(h_ran);
  EXPECT_GE(woke - start, 10u);
  EXPECT_EQ(fx.engine.stats().entry_aborts, 1u);
  EXPECT_EQ(m->stats().timeouts, 1u);
  EXPECT_GE(fx.engine.stats().rollbacks_completed, 1u);  // L was revoked
  EXPECT_EQ(m->reserved(), nullptr);
  EXPECT_EQ(m->in_transit(), 0);
}

TEST(TrySectionTest, OneDeadlineSpansRollbackRetries) {
  // W acquires, is revoked mid-body by H, and retries: the retry must
  // proceed under the ORIGINAL absolute deadline (generous here) and
  // eventually commit — the body runs more than once, the call returns
  // true, and exactly one rollback completed.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  bool w_got = false;
  int body_runs = 0;
  fx.sched.spawn("W", 2, [&] {
    w_got = fx.engine.try_synchronized(*m, 10000, [&] {
      ++body_runs;
      o->set<int>(0, body_runs);
      for (int i = 0; i < 6; ++i) fx.sched.yield_now();
    });
  });
  fx.sched.spawn("H", 8, [&] {
    fx.sched.sleep_for(3);  // arrive while W is mid-body
    fx.engine.synchronized(*m, [&] { fx.sched.yield_point(); });
  });
  fx.sched.run();
  EXPECT_TRUE(w_got);
  EXPECT_GE(body_runs, 2);  // revoked at least once, then retried
  EXPECT_GE(fx.engine.stats().rollbacks_completed, 1u);
  EXPECT_EQ(o->get<int>(0), body_runs);
  EXPECT_EQ(fx.engine.stats().entry_aborts, 0u);
}

TEST(TrySectionTest, AbandonsWhenHolderOutlivesBudget) {
  // The holder outlives W's whole budget: W neither enters nor spins — it
  // abandons once the deadline passes, even though the monitor is released
  // much later.  Same priority, so no revocation fires.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  bool w_got = true;
  fx.sched.spawn("L", 5, [&] {
    fx.engine.synchronized(*m, [&] { fx.sched.sleep_for(50); });
  });
  fx.sched.spawn("W", 5, [&] {
    w_got = fx.engine.try_synchronized(*m, 8, [] {});
  });
  fx.sched.run();
  EXPECT_FALSE(w_got);
  EXPECT_EQ(fx.engine.stats().entry_aborts, 1u);
}

TEST(TrySectionTest, CancelAbortsParkedEngineEntry) {
  // Mid-park cancellation through the whole engine stack.  Revocation is
  // disabled so W stays parked behind L for the full window (with it on,
  // W's own contention would revoke L and W would win the monitor before
  // the cancel lands — the reservation-race version of this is covered
  // exhaustively in tests/explore/cancel_explore_test.cpp and at the
  // monitor layer in tests/monitor/try_enter_test.cpp).
  EngineConfig cfg;
  cfg.detection = DetectionMode::kNone;
  cfg.deadlock_detection = false;
  Fixture fx(cfg);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  bool w_got = true;
  bool l_done = false;
  std::uint64_t start = 0, woke = 0;
  fx.sched.spawn("L", 2, [&] {
    fx.engine.synchronized(*m, [&] { fx.sched.sleep_for(30); });
    l_done = true;
  });
  rt::VThread* w = fx.sched.spawn("W", 5, [&] {
    fx.sched.sleep_for(1);  // let the lower-priority L acquire first
    start = fx.sched.now();
    w_got = fx.engine.try_synchronized(*m, 500, [] {});
    woke = fx.sched.now();
    monitor::MonitorBase::clear_cancel(fx.sched.current_thread());
  });
  fx.sched.spawn("C", 8, [&] {
    fx.sched.sleep_for(5);
    monitor::CancelToken(w).request();
  });
  fx.sched.run();
  EXPECT_FALSE(w_got);
  EXPECT_TRUE(l_done);
  EXPECT_LT(woke - start, 500u);  // the cancel, not the timer, ended it
  EXPECT_EQ(m->stats().cancels, 1u);
  EXPECT_EQ(fx.engine.stats().entry_aborts, 1u);
  EXPECT_EQ(m->reserved(), nullptr);
  EXPECT_EQ(m->in_transit(), 0);
}

TEST(TrySectionTest, LowLevelTrySectionEnterPairsWithCommit) {
  // The vm/-style split protocol: a granted try_section_enter returns a
  // frame id to commit; a refused one returns 0 and leaves no frame.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    const std::uint64_t id = fx.engine.try_section_enter(*m, 0);
    ASSERT_NE(id, 0u);
    EXPECT_EQ(fx.engine.current_frame(), id);
    fx.engine.section_commit();
    EXPECT_EQ(fx.engine.current_frame(), 0u);

    monitor::MonitorBase::cancel(fx.sched.current_thread());
    EXPECT_EQ(fx.engine.try_section_enter(*m, 100), 0u);
    EXPECT_EQ(fx.engine.current_frame(), 0u);  // nothing to commit
    monitor::MonitorBase::clear_cancel(fx.sched.current_thread());
  });
  fx.sched.run();
  EXPECT_EQ(fx.engine.stats().entry_aborts, 1u);
  EXPECT_EQ(fx.engine.stats().sections_entered,
            fx.engine.stats().sections_committed);
}

TEST(TrySectionTest, ObjectFormResolvesMonitorPerRetry) {
  // Object-monitor form against a live object: entry inflates through the
  // lock-word layer and the deadline machinery works identically.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  bool first = false;
  bool second = true;
  fx.sched.spawn("A", 5, [&] {
    first = fx.engine.try_synchronized(o, 0, [&] {
      o->set<int>(0, 1);
      fx.sched.sleep_for(20);  // held past B's whole budget
    });
  });
  fx.sched.spawn("B", 5, [&] {
    second = fx.engine.try_synchronized(o, 5, [&] { o->set<int>(0, 2); });
  });
  fx.sched.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);  // A holds o past B's whole budget
  EXPECT_EQ(o->get<int>(0), 1);
  EXPECT_EQ(fx.engine.stats().entry_aborts, 1u);
}

}  // namespace
}  // namespace rvk::core
