// Cross-shard engine behaviour (DESIGN.md §16), on the deterministic
// cooperative DomainSet and the virtual clock.  The one thing that crosses
// a shard is a shipped synchronized section, so a cross-shard inversion is a
// local one on the owner shard: a shipped contender revokes with the
// classic semantics (oldest-frame targeting, upward pin closure §2.2), and
// cross-shard notify wakes a remote waiter.  A dying object's quiescent
// monitor slot is freed at once under a multi-shard set too, including
// while OS-thread shards inflate concurrently.  The shipped revocation also
// runs on kOsThreads shards, where only its counts (not its ticks) are
// deterministic.
//
// All scenarios run with strict_priority=true: sequencing below is argued
// from priorities (a priority-1 trigger thread runs only after everything
// above it blocked), which round-robin would not guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/hooks.hpp"
#include "core/engine.hpp"
#include "core/revocable_monitor.hpp"
#include "heap/heap.hpp"
#include "jmm/trace.hpp"
#include "monitor/monitor_table.hpp"
#include "rt/domain.hpp"
#include "rt/scheduler.hpp"

namespace rvk {
namespace {

rt::DomainSet::Config two_shards() {
  rt::DomainSet::Config cfg;
  cfg.shards = 2;
  cfg.sched.strict_priority = true;
  return cfg;
}

// ---------------------------------------------------------------------------
// A shipped contender revokes on the owner shard, targeting the oldest frame.
//
// Shard 1: W(5) holds m2 and waits on m3 (wait pins W, who is never a
// target).  owner(2) nests synchronized(m){ synchronized(n){ enter m2 }} and
// parks on m2's entry queue.  S(1) — lowest, so it runs only after both
// blocked — ships a kick to shard 0, whose helper ships a priority-8
// synchronized(m) back to shard 1 and then a notifier section that releases
// the chain.  The contender meets the inversion on shard 1 like a local
// one, and the revocation targets owner's OLDEST frame of m, so the
// rollback unwinds both the m and the nested n frame (frames_aborted == 2)
// even though the contended entry sat below them.

struct RevokeRunShape {
  std::uint64_t rollbacks = 0;
  std::uint64_t frames_aborted = 0;
  std::uint64_t requested = 0;
  int owner_attempts = 0;
  std::vector<std::string> events;  // "tick label", shard 1 clock
  bool operator==(const RevokeRunShape&) const = default;
};

// Under kOsThreads the same scenario runs with one OS thread per shard: the
// counts still hold, because the contender reaches shard 1 while the owner
// is parked on m2, but ticks and event order follow OS timing, so nothing
// is marked (shard 0 and shard 1 would race on `events` and on s1's clock).
RevokeRunShape run_shipped_revoke_scenario(
    rt::DomainSet::Mode mode = rt::DomainSet::Mode::kCooperative) {
  rt::DomainSet::Config cfg = two_shards();
  cfg.mode = mode;
  const bool os_threads = mode == rt::DomainSet::Mode::kOsThreads;
  rt::DomainSet set(cfg);
  RevokeRunShape shape;
  std::unique_ptr<core::Engine> eng[2];
  core::RevocableMonitor* m = nullptr;
  core::RevocableMonitor* n = nullptr;
  core::RevocableMonitor* m2 = nullptr;
  core::RevocableMonitor* m3 = nullptr;
  rt::Scheduler* s1 = nullptr;

  auto mark = [&](const char* label) {
    if (os_threads) return;
    shape.events.push_back(std::to_string(s1->now()) + " " + label);
  };

  auto setup = [&](rt::Domain& d) {
    eng[d.id()] = std::make_unique<core::Engine>(d.sched());
    if (d.id() != 1) return;
    s1 = &d.sched();
    m = eng[1]->make_monitor("m");
    n = eng[1]->make_monitor("n");
    m2 = eng[1]->make_monitor("m2");
    m3 = eng[1]->make_monitor("m3");
    d.sched().spawn("W", 5, [&] {
      eng[1]->synchronized(*m2, [&] {
        eng[1]->synchronized(*m3, [&] { m3->wait(); });
      });
      mark("w-done");
    });
    d.sched().spawn("owner", 2, [&] {
      eng[1]->synchronized(*m, [&] {
        ++shape.owner_attempts;  // host-side: survives the rollback
        s1->yield_point();
        eng[1]->synchronized(*n, [&] {
          s1->yield_point();
          eng[1]->synchronized(*m2, [] {});  // held by W: parks here
        });
      });
      mark("owner-done");
    });
    d.sched().spawn("S", 1, [&] {
      set.remote_call(0, 5, "kick", [&] {
        set.remote_call(1, 8, "contender",
                        [&] { eng[1]->synchronized(*m, [] {}); });
        set.remote_call(1, 6, "m3-notify", [&] {
          eng[1]->synchronized(*m3, [&] { m3->notify_one(); });
        });
        mark("req-done");
      });
    });
  };
  auto teardown = [&](rt::Domain& d) {
    if (d.id() == 1) {
      const core::EngineStats& st = eng[1]->stats();
      shape.rollbacks = st.rollbacks_completed;
      shape.frames_aborted = st.frames_aborted;
      shape.requested = st.revocations_requested;
    }
    eng[d.id()].reset();  // engine dies before its shard's scheduler
  };
  if (os_threads) {
    set.start(setup, teardown);
    set.join();  // join() gives the happens-before for reading the shape
  } else {
    set.run(setup, teardown);
  }
  EXPECT_FALSE(set.deadlocked());
  return shape;
}

TEST(CrossShardRevokeTest, ShippedSectionRevokesOldestFrame) {
  const RevokeRunShape r = run_shipped_revoke_scenario();
  EXPECT_EQ(r.requested, 1u);
  EXPECT_EQ(r.rollbacks, 1u);
  // Oldest-frame targeting: the contender wanted `m`, and both the m frame
  // and the nested n frame unwound.  A request against the innermost frame
  // would have aborted one.
  EXPECT_EQ(r.frames_aborted, 2u);
  EXPECT_EQ(r.owner_attempts, 2);  // rolled back once, retried, committed
  std::string all;
  for (const std::string& ev : r.events) all += ev + "; ";
  ASSERT_EQ(r.events.size(), 3u) << all;
  // Shard 1 unwinds the whole chain (W first — it outranks the retrying
  // owner) before shard 0 gets its next round-robin turn to drain the
  // kSectionDone that resumes the kick.
  EXPECT_NE(r.events[0].find("w-done"), std::string::npos) << all;
  EXPECT_NE(r.events[1].find("owner-done"), std::string::npos) << all;
  EXPECT_NE(r.events[2].find("req-done"), std::string::npos) << all;
}

TEST(CrossShardRevokeTest, DeterministicTickForTick) {
  // The cooperative mode's promise, on the full engine path: identical
  // construction replays the identical interleaving, including every
  // tick-stamped event of the revocation chain.
  const RevokeRunShape a = run_shipped_revoke_scenario();
  const RevokeRunShape b = run_shipped_revoke_scenario();
  EXPECT_TRUE(a == b);
}

TEST(CrossShardRevokeTest, OsThreadsShippedSectionRollsBackAndRetries) {
  // The same revocation with one OS thread per shard.  The counts hold
  // under any OS timing; ticks and event order do not, so neither is
  // asserted.
  for (int run = 0; run < 20; ++run) {
    SCOPED_TRACE(run);
    const RevokeRunShape r =
        run_shipped_revoke_scenario(rt::DomainSet::Mode::kOsThreads);
    EXPECT_EQ(r.requested, 1u);
    EXPECT_EQ(r.rollbacks, 1u);
    EXPECT_EQ(r.frames_aborted, 2u);
    EXPECT_EQ(r.owner_attempts, 2);
  }
}

TEST(CrossShardRevokeTest, PinClosureRefusesShippedContender) {
  // §2.2 upward closure for a shipped contender: the pin is taken in the
  // INNER n frame (a native-call scope), the contender wants the OUTER m
  // frame's monitor — and its revocation must still be refused, with zero
  // rollbacks.  The contender enters with a 50-tick deadline, so the
  // refused entry gives up and the kick can ship the waker.
  rt::DomainSet set(two_shards());
  std::unique_ptr<core::Engine> eng[2];
  core::RevocableMonitor* m = nullptr;
  core::RevocableMonitor* n = nullptr;
  rt::VThread* owner_vt = nullptr;
  rt::Scheduler* s1 = nullptr;
  rt::WaitQueue gate;
  int owner_attempts = 0;
  bool contender_entered = false;
  std::uint64_t denied_pinned = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t frames_aborted = 0;

  set.run(
      [&](rt::Domain& d) {
        eng[d.id()] = std::make_unique<core::Engine>(d.sched());
        if (d.id() != 1) return;
        s1 = &d.sched();
        m = eng[1]->make_monitor("m");
        n = eng[1]->make_monitor("n");
        owner_vt = d.sched().spawn("owner", 5, [&] {
          eng[1]->synchronized(*m, [&] {
            ++owner_attempts;
            eng[1]->synchronized(*n, [&] {
              core::NativeCallScope pin(*eng[1]);
              // Hold the pinned section across the revocation attempt.
              s1->block_current_on(gate);
            });
          });
        });
        d.sched().spawn("S", 1, [&] {
          set.remote_call(0, 5, "kick", [&] {
            set.remote_call(1, 8, "contender", [&] {
              contender_entered = eng[1]->try_synchronized(*m, 50, [] {});
            });
            set.remote_call(1, 6, "waker",
                            [&] { s1->wake_specific(gate, owner_vt); });
          });
        });
      },
      [&](rt::Domain& d) {
        if (d.id() == 1) {
          const core::EngineStats& st = eng[1]->stats();
          rollbacks = st.rollbacks_completed;
          frames_aborted = st.frames_aborted;
          denied_pinned = st.revocations_denied_pinned;
        }
        eng[d.id()].reset();
      });
  EXPECT_FALSE(contender_entered);
  EXPECT_EQ(owner_attempts, 1);
  EXPECT_GE(denied_pinned, 1u);
  EXPECT_EQ(rollbacks, 0u);
  EXPECT_EQ(frames_aborted, 0u);
  EXPECT_FALSE(set.deadlocked());
}

TEST(CrossShardMonitorTest, NotifyFromShippedSectionWakesRemoteWaiter) {
  // Cross-shard notify is "just" a shipped section: the waiter's shard runs
  // the notifier between its own yield points, so the classic wait/notify
  // protocol (including the §2.2 wait pin) needs no new mechanism.
  rt::DomainSet set(two_shards());
  std::unique_ptr<core::Engine> eng[2];
  core::RevocableMonitor* mw = nullptr;
  bool woke = false;
  std::uint64_t waits = 0;
  std::uint64_t notifies = 0;

  set.run(
      [&](rt::Domain& d) {
        eng[d.id()] = std::make_unique<core::Engine>(d.sched());
        if (d.id() == 1) {
          mw = eng[1]->make_monitor("mw");
          d.sched().spawn("waiter", 5, [&] {
            eng[1]->synchronized(*mw, [&] { mw->wait(); });
            woke = true;
          });
        } else {
          d.sched().spawn("req", 5, [&] {
            // Priority 1: on shard 1 the waiter (5) must reach its wait()
            // before this helper's notify, or the wakeup is lost.
            set.remote_call(1, 1, "notifier", [&] {
              eng[1]->synchronized(*mw, [&] { mw->notify_one(); });
            });
          });
        }
      },
      [&](rt::Domain& d) {
        if (d.id() == 1) {
          waits = mw->stats().waits;
          notifies = mw->stats().notifies;
        }
        eng[d.id()].reset();
      });
  EXPECT_TRUE(woke);
  EXPECT_EQ(waits, 1u);
  EXPECT_EQ(notifies, 1u);
  EXPECT_FALSE(set.deadlocked());
}

TEST(CrossShardDeflationTest, DyingQuiescentObjectFreesItsSlot) {
  // Under a multi-shard set a quiescent object monitor whose object dies
  // returns its slot at once, exactly as on one shard: no cross-shard
  // message names a monitor (DESIGN.md §16).
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  rt::DomainSet set(two_shards());
  set.with_domain(1, [&](rt::Domain& d) {
    const std::size_t live_before = table.live_slots();
    {
      core::Engine eng(d.sched());  // binds to the entered domain
      ASSERT_TRUE(table.concurrent());
      heap::Heap heap;
      heap::HeapObject* obj = heap.alloc("obj", 2);
      const monitor::MonitorBase* m = eng.monitor_of(obj);
      ASSERT_NE(m, nullptr);
      EXPECT_TRUE(monitor::MonitorTable::quiescent(*m));
      EXPECT_EQ(table.live_slots(), live_before + 1);
      heap.free(obj);
      EXPECT_EQ(table.live_slots(), live_before);  // destroyed, not detached
    }
    EXPECT_EQ(table.live_slots(), live_before);
  });
}

TEST(CrossShardDeflationTest,
     OsThreadShardsFreeDyingObjectSlotsConcurrently) {
  // Two OS-thread shards each allocate, lock and free objects while both
  // engines live.  Every dying object's quiescent slot goes back to the
  // shared pool under its mutex, while the peer shard inflates, so the
  // table never holds more than the few slots in use at one instant.
  constexpr int kObjects = 500;
  rt::DomainSet::Config cfg;
  cfg.shards = 2;
  cfg.mode = rt::DomainSet::Mode::kOsThreads;
  rt::DomainSet set(cfg);
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  const std::size_t live_before = table.live_slots();
  const std::uint64_t inflations_before = table.stats().inflations;
  std::unique_ptr<core::Engine> eng[2];
  std::unique_ptr<heap::Heap> heaps[2];
  int sections[2] = {0, 0};  // home-shard-only mutation
  set.start(
      [&](rt::Domain& d) {
        const std::uint16_t me = d.id();
        eng[me] = std::make_unique<core::Engine>(d.sched());
        heaps[me] = std::make_unique<heap::Heap>();
        d.sched().spawn("churn", 5, [&, me] {
          for (int i = 0; i < kObjects; ++i) {
            heap::HeapObject* obj = heaps[me]->alloc("obj", 1);
            eng[me]->synchronized(obj, [&] { ++sections[me]; });
            heaps[me]->free(obj);
          }
        });
      },
      [&](rt::Domain& d) { eng[d.id()].reset(); });
  set.join();  // join() gives the happens-before for reading the results
  // The locked snapshot; live_slots() is read only now that no shard runs.
  const monitor::MonitorTableStats st = table.stats();
  EXPECT_EQ(sections[0], kObjects);
  EXPECT_EQ(sections[1], kObjects);
  EXPECT_EQ(st.inflations, inflations_before + 2 * kObjects);
  EXPECT_LT(st.live_high_water, live_before + 16);
  EXPECT_EQ(table.live_slots(), live_before);
  EXPECT_FALSE(set.deadlocked());
}

TEST(CrossShardDeflationTest, MultiShardModeEndsWithItsEngines) {
  // The table's locked multi-shard mode (table.concurrent()) lasts exactly
  // as long as a multi-shard set's engines: on while they live, off once
  // the last of them is gone.
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  EXPECT_FALSE(table.concurrent());
  {
    rt::DomainSet set(two_shards());
    std::unique_ptr<core::Engine> eng[2];
    set.run(
        [&](rt::Domain& d) {
          eng[d.id()] = std::make_unique<core::Engine>(d.sched());
          EXPECT_TRUE(table.concurrent());
        },
        [&](rt::Domain& d) {
          eng[d.id()].reset();
          // The peer's engine may still be alive: the mode ends with the
          // last engine, not the first.
          EXPECT_EQ(table.concurrent(), d.id() == 0);
        });
  }
  EXPECT_FALSE(table.concurrent());
}

TEST(CrossShardDeflationTest,
     ReleaseSlotFreesDyingQuiescentSlotsAtAnyShardCount) {
  // MonitorTable::release_slot destroys a dying object's quiescent slot at
  // once, whatever the shard count: the classic unsharded engine and the
  // engine of a one- and of a two-shard set each inflate and free 1,000
  // objects while holding at most one of their slots at a time.
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  auto churn = [&table](core::Engine& eng) {
    heap::Heap heap;
    const std::size_t live_before = table.live_slots();
    std::size_t high = live_before;
    for (int i = 0; i < 1000; ++i) {
      heap::HeapObject* obj = heap.alloc("obj", 1);
      ASSERT_NE(eng.monitor_of(obj), nullptr);
      high = std::max(high, table.live_slots());
      heap.free(obj);
    }
    EXPECT_EQ(high, live_before + 1);
    EXPECT_EQ(table.live_slots(), live_before);
  };
  {
    rt::Scheduler sched;
    core::Engine eng(sched);
    churn(eng);
  }
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    rt::DomainSet::Config cfg = two_shards();
    cfg.shards = shards;
    rt::DomainSet set(cfg);
    set.with_domain(shards - 1, [&](rt::Domain& d) {
      core::Engine eng(d.sched());
      EXPECT_EQ(table.concurrent(), shards > 1);
      churn(eng);
    });
  }
}

TEST(CrossShardSetupTest, OsThreadShardsConstructEnginesConcurrently) {
  // Both shard threads build their engines at once, with nothing
  // serialising them: each constructor switches the shared MonitorTable
  // into its locked multi-shard mode before its shard touches the table
  // (ThreadSanitizer flags the race otherwise).  Each shard then inflates
  // and uses an object monitor of its own, and its engine's teardown
  // returns that one slot.
  rt::DomainSet::Config cfg;
  cfg.shards = 2;
  cfg.mode = rt::DomainSet::Mode::kOsThreads;
  rt::DomainSet set(cfg);
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  const std::size_t live_before = table.live_slots();
  const std::uint64_t inflations_before = table.stats().inflations;
  std::unique_ptr<core::Engine> eng[2];
  std::unique_ptr<heap::Heap> heaps[2];
  int sections[2] = {0, 0};  // home-shard-only mutation
  set.start(
      [&](rt::Domain& d) {
        const std::uint16_t me = d.id();
        eng[me] = std::make_unique<core::Engine>(d.sched());
        heaps[me] = std::make_unique<heap::Heap>();
        heap::HeapObject* obj = heaps[me]->alloc("obj", 1);
        d.sched().spawn("worker", 5, [&, me, obj] {
          for (int i = 0; i < 10; ++i) {
            eng[me]->synchronized(obj, [&] { ++sections[me]; });
          }
        });
      },
      [&](rt::Domain& d) { eng[d.id()].reset(); });
  set.join();  // join() gives the happens-before for reading the results
  EXPECT_EQ(sections[0], 10);
  EXPECT_EQ(sections[1], 10);
  EXPECT_EQ(table.stats().inflations, inflations_before + 2);
  EXPECT_EQ(table.live_slots(), live_before);
  EXPECT_FALSE(set.deadlocked());
}

TEST(CrossShardSetupTest, OsThreadShardsMayDifferInJmmGuard) {
  // Each shard reaches its own engine through its scheduler's link, so two
  // OS-thread shards may run engines that differ in jmm_guard.  On each
  // shard a writer's section stores to a shard-local object and sleeps
  // with the section open while a reader (not in a section) reads it: the
  // guarded shard 0 marks the object and the foreign read pins the
  // writer's frame; the unguarded shard 1 marks nothing and pins nothing.
  rt::DomainSet::Config cfg;
  cfg.shards = 2;
  cfg.mode = rt::DomainSet::Mode::kOsThreads;
  cfg.sched.strict_priority = true;
  rt::DomainSet set(cfg);
  std::unique_ptr<core::Engine> eng[2];
  std::unique_ptr<heap::Heap> heaps[2];
  std::uint32_t marked_by[2] = {0, 0};  // writer mark seen after the store
  rt::ThreadId writer_id[2] = {0, 0};
  std::uint64_t pinned[2] = {0, 0};
  std::uint64_t foreign_reads[2] = {0, 0};
  set.start(
      [&](rt::Domain& d) {
        const std::uint16_t me = d.id();
        core::EngineConfig ecfg;
        ecfg.jmm_guard = me == 0;
        eng[me] = std::make_unique<core::Engine>(d.sched(), ecfg);
        heaps[me] = std::make_unique<heap::Heap>();
        heap::HeapObject* obj = heaps[me]->alloc("obj", 1);
        core::RevocableMonitor* m = eng[me]->make_monitor("m");
        rt::Scheduler& s = d.sched();
        s.spawn("writer", 5, [&, me, obj, m] {
          writer_id[me] = s.current_thread()->id();
          eng[me]->synchronized(*m, [&] {
            obj->set<int>(0, 1);
            marked_by[me] = obj->meta().writer_tid;
            s.sleep_for(10);  // the reader runs while the section is open
          });
        });
        s.spawn("reader", 3, [obj] { (void)obj->get<int>(0); });
      },
      [&](rt::Domain& d) {
        const core::EngineStats& st = eng[d.id()]->stats();
        pinned[d.id()] = st.frames_pinned;
        foreign_reads[d.id()] = st.foreign_reads_observed;
        eng[d.id()].reset();
      });
  set.join();  // join() gives the happens-before for reading the results
  EXPECT_EQ(marked_by[0], writer_id[0]);
  EXPECT_NE(writer_id[0], 0u);
  EXPECT_EQ(foreign_reads[0], 1u);
  EXPECT_EQ(pinned[0], 1u);
  EXPECT_EQ(marked_by[1], 0u);
  EXPECT_EQ(foreign_reads[1], 0u);
  EXPECT_EQ(pinned[1], 0u);
  EXPECT_FALSE(set.deadlocked());
}

// ---------------------------------------------------------------------------
// Tools observe through their engine, so two shards carry two of each.

TEST(CrossShardToolsTest, EachShardsTraceAndAnalyzerSeeOnlyThatShard) {
  // Each shard's engine has its own jmm::Trace and its own analyzer.  On
  // each shard two threads write one shard-local object with no monitor (a
  // seeded lockset race).  Each trace holds only its own shard's writes, and
  // each analyzer reports only its own shard's race.
  rt::DomainSet set(two_shards());
  std::unique_ptr<core::Engine> eng[2];
  std::unique_ptr<jmm::Trace> trace[2];
  std::unique_ptr<heap::Heap> heaps[2];
  const heap::HeapObject* obj[2] = {nullptr, nullptr};
  std::vector<rt::ThreadId> racers[2];
  std::vector<jmm::Event> events[2];
  std::vector<analysis::Violation> violations[2];
  set.run(
      [&](rt::Domain& d) {
        const std::uint16_t me = d.id();
        core::EngineConfig ecfg;
        ecfg.analyze = true;
        eng[me] = std::make_unique<core::Engine>(d.sched(), ecfg);
        trace[me] = std::make_unique<jmm::Trace>(*eng[me]);
        heaps[me] = std::make_unique<heap::Heap>();
        heap::HeapObject* o = heaps[me]->alloc("shared", 1);
        obj[me] = o;
        rt::Scheduler& s = d.sched();
        for (int i = 0; i < 2; ++i) {
          racers[me].push_back(s.spawn("racer", rt::kNormPriority, [&s, o] {
            for (int n = 0; n < 3; ++n) {
              o->set<int>(0, n);
              s.yield_now();
            }
          })->id());
        }
      },
      [&](rt::Domain& d) {
        const std::uint16_t me = d.id();
        events[me] = trace[me]->events();
        violations[me] = eng[me]->analyzer()->report().violations;
        trace[me].reset();  // observers go before their engine
        eng[me].reset();
      });
  for (int me = 0; me < 2; ++me) {
    SCOPED_TRACE(me);
    EXPECT_EQ(events[me].size(), 6u);  // two racers, three writes each
    for (const jmm::Event& e : events[me]) {
      EXPECT_EQ(e.kind, jmm::EventKind::kWrite);
      EXPECT_EQ(e.loc.base, obj[me]);
      EXPECT_NE(std::find(racers[me].begin(), racers[me].end(), e.tid),
                racers[me].end());
    }
    ASSERT_EQ(violations[me].size(), 1u);
    EXPECT_EQ(violations[me][0].kind, analysis::Violation::Kind::kLocksetRace);
    EXPECT_EQ(violations[me][0].base, obj[me]);
  }
  EXPECT_FALSE(set.deadlocked());
}

}  // namespace
}  // namespace rvk
