// Cross-shard engine behaviour (DESIGN.md §16), on the deterministic
// cooperative DomainSet and the virtual clock: mailbox-delivered revocation
// lands on the owner shard with the classic semantics (oldest-frame
// targeting, upward pin closure §2.2, refusal-as-counted-drop), cross-shard
// notify wakes a remote waiter, a remote boost repositions the target in
// its home shard's queues, and under a multi-shard set a dying object's
// monitor slot waits for its engine.  The remote revocation also runs on
// kOsThreads shards, where only its counts (not its ticks) are
// deterministic.
//
// All scenarios run with strict_priority=true: sequencing below is argued
// from priorities (a priority-1 trigger thread runs only after everything
// above it blocked), which round-robin would not guarantee.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/revocable_monitor.hpp"
#include "heap/heap.hpp"
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
// Remote revocation executes on the owner shard with oldest-frame targeting.
//
// Shard 1: W(5) holds m2 and waits on m3 (wait pins W, who is never a
// target).  owner(2) nests synchronized(m){ synchronized(n){ enter m2 }} and
// parks on m2's entry queue.  S(1) — lowest, so it runs only after both
// blocked — remote-spawns the requester onto shard 0, which posts a kRevoke
// against `m` and then ships a notifier section that releases the chain.
// The revocation targets owner's OLDEST frame of m, so the rollback unwinds
// both the m and the nested n frame (frames_aborted == 2) even though the
// contended entry sat below them.

struct RevokeRunShape {
  std::uint64_t revokes_executed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t frames_aborted = 0;
  std::uint64_t requested = 0;
  int owner_attempts = 0;
  std::vector<std::string> events;  // "tick label", shard 1 clock
  bool operator==(const RevokeRunShape& o) const {
    return revokes_executed == o.revokes_executed && dropped == o.dropped &&
           rollbacks == o.rollbacks && frames_aborted == o.frames_aborted &&
           requested == o.requested && owner_attempts == o.owner_attempts &&
           events == o.events;
  }
};

// Under kOsThreads the same scenario runs with one OS thread per shard: the
// counts still hold, because the kRevoke reaches the owner while it is parked
// on m2, but ticks and event order follow OS timing, so nothing is marked
// (shard 0 and shard 1 would race on `events` and on s1's clock).
RevokeRunShape run_remote_revoke_scenario(
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
  rt::VThread* owner_vt = nullptr;
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
    owner_vt = d.sched().spawn("owner", 2, [&] {
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
      set.remote_spawn(0, "req", 5, [&] {
        set.remote_revoke(1, owner_vt, m, 8);
        set.remote_call(1, 6, "m3-notify", [&] {
          eng[1]->synchronized(*m3, [&] { m3->notify_one(); });
        });
        mark("req-done");
      });
    });
  };
  auto teardown = [&](rt::Domain& d) {
    if (d.id() == 1) {
      shape.revokes_executed = d.revokes_executed();
      shape.dropped = d.dropped();
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

TEST(CrossShardRevokeTest, ExecutesOnOwnerShardTargetingOldestFrame) {
  const RevokeRunShape r = run_remote_revoke_scenario();
  EXPECT_EQ(r.revokes_executed, 1u);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.requested, 1u);
  EXPECT_EQ(r.rollbacks, 1u);
  // Oldest-frame targeting: the request named `m`, and both the m frame and
  // the nested n frame unwound.  A request against the innermost frame
  // would have aborted one.
  EXPECT_EQ(r.frames_aborted, 2u);
  EXPECT_EQ(r.owner_attempts, 2);  // rolled back once, retried, committed
  std::string all;
  for (const std::string& ev : r.events) all += ev + "; ";
  ASSERT_EQ(r.events.size(), 3u) << all;
  // Shard 1 unwinds the whole chain (W first — it outranks the retrying
  // owner) before shard 0 gets its next round-robin turn to drain the
  // kSectionDone that resumes the requester.
  EXPECT_NE(r.events[0].find("w-done"), std::string::npos) << all;
  EXPECT_NE(r.events[1].find("owner-done"), std::string::npos) << all;
  EXPECT_NE(r.events[2].find("req-done"), std::string::npos) << all;
}

TEST(CrossShardRevokeTest, DeterministicTickForTick) {
  // The cooperative mode's promise, on the full engine path: identical
  // construction replays the identical interleaving, including every
  // tick-stamped event of the revocation chain.
  const RevokeRunShape a = run_remote_revoke_scenario();
  const RevokeRunShape b = run_remote_revoke_scenario();
  EXPECT_TRUE(a == b);
}

TEST(CrossShardRevokeTest, OsThreadsRemoteRevokeRollsBackAndRetries) {
  // The same revocation with one OS thread per shard: the only revocation
  // path across native threads.  The counts hold under any OS timing; ticks
  // and event order do not, so neither is asserted.
  for (int run = 0; run < 20; ++run) {
    SCOPED_TRACE(run);
    const RevokeRunShape r =
        run_remote_revoke_scenario(rt::DomainSet::Mode::kOsThreads);
    EXPECT_EQ(r.revokes_executed, 1u);
    EXPECT_EQ(r.dropped, 0u);
    EXPECT_EQ(r.requested, 1u);
    EXPECT_EQ(r.rollbacks, 1u);
    EXPECT_EQ(r.frames_aborted, 2u);
    EXPECT_EQ(r.owner_attempts, 2);
  }
}

TEST(CrossShardRevokeTest, RacingACommitIsACountedDropNotAnError) {
  // The requester's view of the owner is stale by construction (a mailbox
  // hop old).  Here the owner commits before the kRevoke arrives: the
  // refusal must be a counted drop on the owner shard, with no rollback.
  rt::DomainSet set(two_shards());
  std::unique_ptr<core::Engine> eng[2];
  core::RevocableMonitor* m = nullptr;
  rt::VThread* owner_vt = nullptr;
  rt::Scheduler* s1 = nullptr;
  rt::WaitQueue gate;
  int owner_attempts = 0;
  bool owner_done = false;
  RevokeRunShape shape;

  set.run(
      [&](rt::Domain& d) {
        eng[d.id()] = std::make_unique<core::Engine>(d.sched());
        if (d.id() != 1) return;
        s1 = &d.sched();
        m = eng[1]->make_monitor("m");
        owner_vt = d.sched().spawn("owner", 5, [&] {
          eng[1]->synchronized(*m, [&] {
            ++owner_attempts;
            s1->yield_point();
          });
          // Committed.  Stay alive (parked on a test gate) so the stale
          // kRevoke dereferences a live thread, not a freed one.
          s1->block_current_on(gate);
          owner_done = true;
        });
        d.sched().spawn("S", 1, [&] {
          set.remote_spawn(0, "req", 5, [&] {
            set.remote_revoke(1, owner_vt, m, 8);
            set.remote_call(1, 6, "waker",
                            [&] { s1->wake_specific(gate, owner_vt); });
          });
        });
      },
      [&](rt::Domain& d) {
        if (d.id() == 1) {
          shape.revokes_executed = d.revokes_executed();
          shape.dropped = d.dropped();
          shape.rollbacks = eng[1]->stats().rollbacks_completed;
        }
        eng[d.id()].reset();
      });
  EXPECT_TRUE(owner_done);
  EXPECT_EQ(owner_attempts, 1);  // never rolled back
  EXPECT_EQ(shape.dropped, 1u);
  EXPECT_EQ(shape.revokes_executed, 0u);
  EXPECT_EQ(shape.rollbacks, 0u);
}

TEST(CrossShardRevokeTest, PinClosureRefusesRemoteRevocation) {
  // §2.2 upward closure across the mailbox: the pin is taken in the INNER
  // n frame (a native-call scope), the remote request targets the OUTER m
  // frame — and must still be refused, as a counted drop plus a
  // revocations_denied_pinned tick, with zero rollbacks.
  rt::DomainSet set(two_shards());
  std::unique_ptr<core::Engine> eng[2];
  core::RevocableMonitor* m = nullptr;
  core::RevocableMonitor* n = nullptr;
  rt::VThread* owner_vt = nullptr;
  rt::Scheduler* s1 = nullptr;
  rt::WaitQueue gate;
  int owner_attempts = 0;
  std::uint64_t denied_pinned = 0;
  RevokeRunShape shape;

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
          set.remote_spawn(0, "req", 5, [&] {
            set.remote_revoke(1, owner_vt, m, 8);
            set.remote_call(1, 6, "waker",
                            [&] { s1->wake_specific(gate, owner_vt); });
          });
        });
      },
      [&](rt::Domain& d) {
        if (d.id() == 1) {
          shape.dropped = d.dropped();
          shape.revokes_executed = d.revokes_executed();
          shape.rollbacks = eng[1]->stats().rollbacks_completed;
          shape.frames_aborted = eng[1]->stats().frames_aborted;
          denied_pinned = eng[1]->stats().revocations_denied_pinned;
        }
        eng[d.id()].reset();
      });
  EXPECT_EQ(owner_attempts, 1);
  EXPECT_EQ(denied_pinned, 1u);
  EXPECT_EQ(shape.dropped, 1u);
  EXPECT_EQ(shape.revokes_executed, 0u);
  EXPECT_EQ(shape.rollbacks, 0u);
  EXPECT_EQ(shape.frames_aborted, 0u);
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

TEST(CrossShardMonitorTest, RemoteBoostRepositionsEntryQueue) {
  // kBoost executes on the target's home shard (priority is scheduler state
  // there) and must re-bucket a parked thread in place: T(2) sits behind
  // C(3) on m2's entry queue until the remote boost to 8 moves it ahead.
  rt::DomainSet set(two_shards());
  std::unique_ptr<core::Engine> eng[2];
  core::RevocableMonitor* m2 = nullptr;
  core::RevocableMonitor* m3 = nullptr;
  rt::VThread* t_vt = nullptr;
  rt::Scheduler* s1 = nullptr;
  int t_prio_seen = 0;
  std::string order;

  set.run(
      [&](rt::Domain& d) {
        eng[d.id()] = std::make_unique<core::Engine>(d.sched());
        if (d.id() != 1) return;
        s1 = &d.sched();
        m2 = eng[1]->make_monitor("m2");
        m3 = eng[1]->make_monitor("m3");
        d.sched().spawn("h", 5, [&] {
          eng[1]->synchronized(*m2, [&] {
            eng[1]->synchronized(*m3, [&] { m3->wait(); });
          });
        });
        d.sched().spawn("C", 3, [&] {
          eng[1]->synchronized(*m2, [&] { order += 'C'; });
        });
        t_vt = d.sched().spawn("T", 2, [&] {
          eng[1]->synchronized(*m2, [&] {
            t_prio_seen = s1->current_thread()->priority();
            order += 'T';
          });
        });
        d.sched().spawn("S", 1, [&] {
          set.remote_spawn(0, "req", 5, [&] {
            set.remote_boost(1, t_vt, 8);
            set.remote_call(1, 4, "m3-notify", [&] {
              eng[1]->synchronized(*m3, [&] { m3->notify_one(); });
            });
          });
        });
      },
      [&](rt::Domain& d) { eng[d.id()].reset(); });
  EXPECT_EQ(t_prio_seen, 8);  // entered the section already boosted
  EXPECT_EQ(order, "TC");     // boost moved T ahead of the higher-born C
}

TEST(CrossShardDeflationTest, DyingObjectDetachesUntilEngineTeardown) {
  // DESIGN.md §16: a kRevoke message names its monitor by raw pointer, and
  // quiescent() cannot see a message in flight.  So under a multi-shard
  // set, even a quiescent object monitor whose object dies is detached,
  // not destroyed, and the engine's teardown collects it.
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
      heap.free(obj);  // quiescent, but a message might still name it
      EXPECT_EQ(table.live_slots(), live_before + 1);  // detached
    }
    EXPECT_EQ(table.live_slots(), live_before);  // teardown collected it
  });
}

TEST(CrossShardDeflationTest, MultiShardModeEndsWithItsEngines) {
  // The table's multi-shard mode lasts exactly as long as a multi-shard
  // engine: once the set's engines are gone, a classic single-shard engine
  // destroys each dying object's quiescent slot again instead of detaching
  // it until its own teardown.
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  {
    rt::DomainSet set(two_shards());
    std::unique_ptr<core::Engine> eng[2];
    set.run(
        [&](rt::Domain& d) {
          eng[d.id()] = std::make_unique<core::Engine>(d.sched());
          EXPECT_TRUE(table.concurrent());
        },
        [&](rt::Domain& d) { eng[d.id()].reset(); });
  }
  EXPECT_FALSE(table.concurrent());

  rt::Scheduler sched;
  core::Engine eng(sched);
  heap::Heap heap;
  const std::size_t live_before = table.live_slots();
  for (int i = 0; i < 1000; ++i) {
    heap::HeapObject* obj = heap.alloc("obj", 1);
    ASSERT_NE(eng.monitor_of(obj), nullptr);
    heap.free(obj);
  }
  EXPECT_EQ(table.live_slots(), live_before);
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

}  // namespace
}  // namespace rvk
