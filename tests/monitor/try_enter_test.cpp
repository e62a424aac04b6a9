// Abortable acquisition (MonitorBase::try_enter, DESIGN.md §14) on the
// virtual clock: tick-exact expiry, FIFO among equal deadlines, recursive
// entry, pure tryLock, cancellation of parked and not-yet-parked waiters,
// reservation surrender, and exact in-transit accounting across cancel
// windows — plus the converse: blocking entry, on every layer, ignores
// cancellation.  All assertions are deterministic virtual-clock assertions
// — no wall-clock anywhere (CLAUDE.md).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "monitor/monitor.hpp"
#include "rt/scheduler.hpp"

namespace rvk::monitor {
namespace {

TEST(TryEnterTest, ExpiresExactlyAtTickBoundary) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  bool got = true;
  std::uint64_t start = 0, woke = 0;
  s.spawn("holder", rt::kNormPriority, [&] {
    m.acquire();
    s.sleep_for(100);  // held past the waiter's deadline
    m.release();
  });
  s.spawn("waiter", rt::kNormPriority, [&] {
    start = s.now();
    got = m.try_enter(30);
    woke = s.now();
  });
  s.run();
  EXPECT_FALSE(got);
  // With every other thread asleep the clock jumps straight to the timer
  // deadline: expiry is exact, not approximate.
  EXPECT_EQ(woke - start, 30u);
  EXPECT_EQ(m.stats().aborts, 1u);
  EXPECT_EQ(m.stats().timeouts, 1u);
  EXPECT_EQ(m.stats().cancels, 0u);
  EXPECT_EQ(m.in_transit(), 0);
}

TEST(TryEnterTest, EqualDeadlinesExpireFifo) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  std::vector<int> order;
  s.spawn("holder", rt::kNormPriority, [&] {
    m.acquire();
    s.sleep_for(100);
    m.release();
  });
  // Same priority, same deadline: the timer heap's sequence number must
  // break the tie FIFO — first armed, first expired.
  s.spawn("w1", rt::kNormPriority, [&] {
    EXPECT_FALSE(m.try_enter(40));
    order.push_back(1);
  });
  s.spawn("w2", rt::kNormPriority, [&] {
    EXPECT_FALSE(m.try_enter(40));
    order.push_back(2);
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(TryEnterTest, RecursiveEntryIgnoresDeadline) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  s.spawn("owner", rt::kNormPriority, [&] {
    ASSERT_TRUE(m.try_enter(10));
    const std::uint64_t before = s.now();
    EXPECT_TRUE(m.try_enter(0));  // recursive: instant, no timer
    EXPECT_EQ(s.now(), before);
    EXPECT_EQ(m.recursion(), 2);
    m.release();
    m.release();
  });
  s.run();
  EXPECT_EQ(m.owner(), nullptr);
  EXPECT_EQ(m.stats().aborts, 0u);
}

TEST(TryEnterTest, ZeroTicksIsPureTryLock) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  bool got = true;
  std::uint64_t before = 0, after = 0;
  s.spawn("holder", rt::kNormPriority, [&] {
    m.acquire();
    s.sleep_for(20);  // held while the prober runs
    m.release();
  });
  s.spawn("prober", rt::kNormPriority, [&] {
    before = s.now();
    got = m.try_enter(0);
    after = s.now();
  });
  s.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(before, after);  // never blocked, never armed a timer
  EXPECT_EQ(m.stats().timeouts, 1u);
}

TEST(TryEnterTest, SucceedsBeforeDeadlineAndDisarmsTimer) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  bool got = false;
  s.spawn("holder", rt::kNormPriority, [&] {
    m.acquire();
    s.sleep_for(10);
    m.release();  // well before the waiter's deadline
  });
  s.spawn("waiter", rt::kNormPriority, [&] {
    got = m.try_enter(1000);
    // The grant's make_runnable bumped timer_gen_: the heap entry is stale.
    EXPECT_FALSE(s.timer_armed(s.current_thread(), /*timed_block=*/true));
    m.release();
  });
  s.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(m.stats().aborts, 0u);
  EXPECT_EQ(m.in_transit(), 0);
}

TEST(TryEnterTest, CancelAbortsParkedWaiterBeforeDeadline) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  bool got = true;
  std::uint64_t start = 0, woke = 0;
  s.spawn("holder", rt::kNormPriority, [&] {
    m.acquire();
    s.sleep_for(500);
    m.release();
  });
  bool cancel_left = false;
  rt::VThread* w = s.spawn("waiter", rt::kNormPriority, [&] {
    start = s.now();
    got = m.try_enter(1000);
    woke = s.now();
    cancel_left = s.current_thread()->cancel_requested;
  });
  s.spawn("canceller", rt::kNormPriority, [&s, w] {
    s.sleep_for(20);
    MonitorBase::cancel(w);
  });
  s.run();
  EXPECT_FALSE(got);
  EXPECT_LT(woke - start, 1000u);  // aborted by the cancel, not the timer
  EXPECT_EQ(m.stats().cancels, 1u);
  EXPECT_EQ(m.stats().timeouts, 0u);
  EXPECT_EQ(m.in_transit(), 0);
  EXPECT_TRUE(cancel_left);  // sticky until cleared
}

TEST(TryEnterTest, PendingCancelFailsBeforeBlocking) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  bool first = true, second = false;
  s.spawn("holder", rt::kNormPriority, [&] {
    m.acquire();
    for (int i = 0; i < 10; ++i) s.yield_point();
    m.release();
  });
  s.spawn("waiter", rt::kNormPriority, [&] {
    MonitorBase::cancel(s.current_thread());  // self-cancel, pre-posted
    const std::uint64_t before = s.now();
    first = m.try_enter(1000);
    EXPECT_EQ(s.now(), before);  // failed without parking
    MonitorBase::clear_cancel(s.current_thread());
    second = m.try_enter(1000);  // cleared: proceeds normally
    if (second) m.release();
  });
  s.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_EQ(m.stats().cancels, 1u);
}

TEST(TryEnterTest, CancelReturnsReservationToNextWaiter) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  bool w_got = true;
  bool v_got = false;
  rt::VThread* w = nullptr;
  s.spawn("holder", 5, [&] {
    m.acquire();
    s.sleep_for(10);  // held while both waiters arrive and park
    m.release_reserving();  // rollback-style release: reserves best waiter
    EXPECT_EQ(m.reserved(), w);
    // Cancel the reserved waiter in the same atomic stretch (no yield since
    // the reservation): cancellation must surrender the grant and re-handoff
    // to the next-best waiter — never both, never neither (§14).
    MonitorBase::cancel(w);
    EXPECT_NE(m.reserved(), w);
    EXPECT_NE(m.reserved(), nullptr);
  });
  w = s.spawn("W", 6, [&] {
    s.sleep_for(2);  // let the lower-priority holder acquire first
    w_got = m.try_enter(200);
  });
  s.spawn("V", 4, [&] {
    s.sleep_for(2);
    m.acquire();  // plain acquire: unaffected by W's cancellation
    v_got = true;
    m.release();
  });
  s.run();
  EXPECT_FALSE(w_got);
  EXPECT_TRUE(v_got);
  EXPECT_EQ(m.stats().reservations, 1u);  // only the rollback release counts
  EXPECT_EQ(m.stats().cancels, 1u);
  EXPECT_EQ(m.reserved(), nullptr);
  EXPECT_EQ(m.in_transit(), 0);
}

TEST(TryEnterTest, CancelDuringWaitForIsASpuriousWakeup) {
  // Java fidelity: plain wait()/wait_for() do not observe cancellation —
  // the interrupt is delivered as a spurious wakeup (§2.2 permits them),
  // the monitor is reacquired normally, nothing is counted as aborted, and
  // the in-transit accounting the §13 quiescence predicate reads stays
  // exact across the cancel window.
  rt::Scheduler s;
  BlockingMonitor m("m");
  bool woken_early = false;
  std::uint64_t start = 0, woke = 0;
  rt::VThread* w = s.spawn("waiter", rt::kNormPriority, [&] {
    m.acquire();
    start = s.now();
    woken_early = m.wait_for(300);
    woke = s.now();
    EXPECT_TRUE(m.held_by_current());  // reacquired despite the cancel
    m.release();
  });
  s.spawn("canceller", rt::kNormPriority, [&s, w] {
    s.sleep_for(50);
    MonitorBase::cancel(w);
  });
  s.run();
  EXPECT_TRUE(woken_early);  // spurious wakeup, not a timeout
  EXPECT_GE(woke - start, 50u);
  EXPECT_LT(woke - start, 300u);  // well before the deadline
  EXPECT_EQ(m.stats().cancels, 0u);  // no abortable wait was aborted
  EXPECT_EQ(m.in_transit(), 0);
  EXPECT_EQ(m.wait_set().size(), 0u);
}

TEST(TryEnterTest, CancelTokenRoundTrip) {
  rt::Scheduler s;
  BlockingMonitor m("m");
  s.spawn("t", rt::kNormPriority, [&] {
    CancelToken tok(s.current_thread());
    EXPECT_FALSE(tok.requested());
    tok.request();
    EXPECT_TRUE(tok.requested());
    EXPECT_FALSE(m.try_enter(0));  // even a free monitor refuses
    tok.clear();
    EXPECT_FALSE(tok.requested());
    EXPECT_TRUE(m.try_enter(0));
    m.release();
    EXPECT_EQ(tok.target(), s.current_thread());
  });
  s.run();
  EXPECT_EQ(m.stats().cancels, 1u);
}

// ---------------------------------------------------------------------------
// Blocking entry is abortable entry with no deadline, and so never observes
// cancellation (Java fidelity, MonitorBase::cancel): a cancel posted before
// entry or while parked is at most a spurious wakeup, on every layer.

struct EntryWorld {
  rt::Scheduler sched;
  core::Engine engine{sched};
  heap::Heap heap;
  heap::HeapObject* obj = heap.alloc("obj", 1);
  BlockingMonitor blocking{"blocking"};
  core::RevocableMonitor* revocable = engine.make_monitor("revocable");
};

// Runs while the lock is held, given the monitor behind it.
using Inside = std::function<void(MonitorBase*)>;

struct BlockingPath {
  const char* name;
  void (*section)(EntryWorld& w, const Inside& inside);
};

const BlockingPath kBlockingPaths[] = {
    {"BlockingMonitor::acquire",
     [](EntryWorld& w, const Inside& inside) {
       w.blocking.acquire();
       inside(&w.blocking);
       w.blocking.release();
     }},
    {"RevocableMonitor::acquire",
     [](EntryWorld& w, const Inside& inside) {
       w.revocable->acquire();
       inside(w.revocable);
       w.revocable->release();
     }},
    {"Engine::synchronized(m)",
     [](EntryWorld& w, const Inside& inside) {
       w.engine.synchronized(*w.revocable, [&] { inside(w.revocable); });
     }},
    {"Engine::synchronized(obj)",
     [](EntryWorld& w, const Inside& inside) {
       w.engine.synchronized(w.obj,
                             [&] { inside(w.engine.monitor_of(w.obj)); });
     }},
};

TEST(BlockingEntryTest, IgnoresCancellationOnEveryPath) {
  for (const BlockingPath& path : kBlockingPaths) {
    for (const bool mid_park : {false, true}) {
      SCOPED_TRACE(std::string(path.name) +
                   (mid_park ? ", cancelled mid-park" : ", pre-cancelled"));
      EntryWorld w;
      rt::Scheduler& s = w.sched;
      bool got = false;
      MonitorStats seen;
      int transit = -1;
      bool cancel_left = false;
      s.spawn("holder", rt::kNormPriority,
              [&] { path.section(w, [&](MonitorBase*) { s.sleep_for(50); }); });
      rt::VThread* waiter = s.spawn("waiter", rt::kNormPriority, [&] {
        s.sleep_for(5);  // the holder is inside: this entry contends
        if (!mid_park) MonitorBase::cancel(s.current_thread());
        path.section(w, [&](MonitorBase* m) {
          got = true;
          ASSERT_NE(m, nullptr);
          seen = m->stats();
          transit = m->in_transit();
        });
        cancel_left = s.current_thread()->cancel_requested;
      });
      if (mid_park) {
        s.spawn("canceller", rt::kNormPriority, [&s, waiter] {
          s.sleep_for(20);  // the waiter is parked in the entry queue
          MonitorBase::cancel(waiter);
        });
      }
      s.run();
      EXPECT_TRUE(got);
      EXPECT_TRUE(cancel_left);  // posted, never observed
      EXPECT_GE(seen.contended, 1u);          // the entry really parked
      EXPECT_EQ(seen.cancels, 0u);
      EXPECT_EQ(seen.aborts, 0u);
      EXPECT_EQ(transit, 0);
      EXPECT_EQ(w.engine.stats().entry_aborts, 0u);
    }
  }

  // The same uncontended script through synchronized and try_synchronized
  // leaves equal bias counters, both on the engine's lazy fast path and on
  // the monitor's own grant predicate (any event subscriber disables the
  // lazy path).
  struct IgnoreEvents : core::EngineObserver {
    void on_engine_event(const core::EngineEvent&) override {}
  };
  for (const bool hooked : {false, true}) {
    SCOPED_TRACE(hooked ? "slow-path bias predicate" : "lazy fast path");
    MonitorStats by_entry[2];
    for (const bool abortable : {false, true}) {
      IgnoreEvents ignore;  // outlives the engine it subscribes to
      EntryWorld w;
      if (hooked) w.engine.subscribe(&ignore);
      auto section = [&] {
        if (abortable) {
          EXPECT_TRUE(w.engine.try_synchronized(*w.revocable, 100, [] {}));
        } else {
          w.engine.synchronized(*w.revocable, [] {});
        }
      };
      w.sched.spawn("a", rt::kNormPriority, [&] {
        for (int i = 0; i < 3; ++i) section();
      });
      w.sched.spawn("b", rt::kNormPriority, section);
      w.sched.run();
      by_entry[abortable] = w.revocable->stats();
    }
    EXPECT_EQ(by_entry[0].bias_grants, 2u);  // a's second and third entry
    EXPECT_EQ(by_entry[0].bias_revocations, 1u);  // b's arrival
    EXPECT_EQ(by_entry[0].bias_grants, by_entry[1].bias_grants);
    EXPECT_EQ(by_entry[0].bias_revocations, by_entry[1].bias_revocations);
  }
}

}  // namespace
}  // namespace rvk::monitor
