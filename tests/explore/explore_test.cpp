// Schedule-exploration harness (explore/): bounded-exhaustive DFS and
// seeded random walks over the four trickiest protocol interactions, trace
// record/replay of failing schedules, and the fault-injection acceptance
// test (an always-reserving monitor must be caught, and its trace must
// replay to the same failure).
//
// Each scenario is a deterministic function of the dispatch-decision
// sequence: shared state lives in ScenarioContext-retained objects (thread
// bodies outlive the scenario call), and mutual-exclusion probes live in
// the HEAP so a revoked execution's occupancy rolls back with everything
// else (a host-side flag would leak increments from revoked executions).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/revocable_monitor.hpp"
#include "explore/explorer.hpp"
#include "heap/heap.hpp"
#include "rt/scheduler.hpp"

namespace rvk::explore {
namespace {

struct Shared {
  heap::Heap heap;
  heap::HeapObject* probe = nullptr;  // one occupancy slot per monitor
  int done = 0;                       // bumped OUTSIDE sections: not undone
};

void enter_probe(rt::Scheduler& s, heap::HeapObject* o, int slot) {
  if (o->get<int>(slot) != 0) {
    throw std::runtime_error("mutual exclusion violated on probe slot " +
                             std::to_string(slot));
  }
  o->set<int>(slot, static_cast<int>(s.current_thread()->id()));
}

void exit_probe(heap::HeapObject* o, int slot) { o->set<int>(slot, 0); }

void expect_done(ScenarioContext& ctx, Shared* st, int expected) {
  ctx.after_run([st, expected] {
    if (st->done != expected) {
      throw std::runtime_error("only " + std::to_string(st->done) + " of " +
                               std::to_string(expected) +
                               " threads completed");
    }
  });
}

// ---------------------------------------------------------------------------
// Scenario 1 — revoke during wakeup.  H nests n->m while L holds m; when X
// (higher priority) contends n, the engine posts a revocation against H's
// oldest n-frame.  In many interleavings H is parked on m's entry queue at
// that moment, so delivery must interrupt the park and the wakeup path must
// unwind the *enclosing* frame it never finished nesting under.
void revoke_during_wakeup(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  core::RevocableMonitor* n = e.make_monitor("n");
  core::RevocableMonitor* m = e.make_monitor("m");
  Shared* st = ctx.make<Shared>();
  st->probe = st->heap.alloc("probe", 2);  // slot 0: m, slot 1: n

  s.spawn("L", 2, [&s, &e, m, st] {
    e.synchronized(*m, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  s.spawn("H", 8, [&s, &e, n, m, st] {
    e.synchronized(*n, [&] {
      enter_probe(s, st->probe, 1);
      s.yield_point();
      e.synchronized(*m, [&] {
        enter_probe(s, st->probe, 0);
        s.yield_point();
        exit_probe(st->probe, 0);
      });
      exit_probe(st->probe, 1);
    });
    ++st->done;
  });
  s.spawn("X", 9, [&s, &e, n, st] {
    e.synchronized(*n, [&] { s.yield_point(); });
    ++st->done;
  });
  expect_done(ctx, st, 3);
}

// ---------------------------------------------------------------------------
// Scenario 2 — nested pin.  L pins its inner b-frame with a native-call
// scope, which must pin the enclosing a-frame too (non-revocability is
// upward-closed, §2.2).  H's contention on a races the pin: requests before
// it are delivered or dropped-at-delivery, requests after it are denied —
// every window is explored, and the pin-prefix invariant is checked at each
// step.
void nested_pin_revocation(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  core::RevocableMonitor* a = e.make_monitor("a");
  core::RevocableMonitor* b = e.make_monitor("b");
  Shared* st = ctx.make<Shared>();
  st->probe = st->heap.alloc("probe", 1);

  s.spawn("L", 2, [&s, &e, a, b, st] {
    e.synchronized(*a, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();  // revocable window: requests here are delivered
      e.synchronized(*b, [&] {
        core::NativeCallScope pin(e);  // pins b AND the enclosing a
        s.yield_point();  // pinned window: requests here are denied
        s.yield_point();
      });
      s.yield_point();  // still pinned (the pin outlives the inner frame)
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  s.spawn("H", 8, [&s, &e, a, st] {
    e.synchronized(*a, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  // H2 outranks H's deposited priority, so its contention on a can post a
  // revocation against H while H is itself parked behind L's pinned frame.
  s.spawn("H2", 9, [&s, &e, a, st] {
    e.synchronized(*a, [&] { s.yield_point(); });
    ++st->done;
  });
  expect_done(ctx, st, 3);
}

// ---------------------------------------------------------------------------
// Scenario 3 — priority re-bucket mid-queue.  When H contends m, the engine
// revokes (and priority-boosts) L — which at that moment
// may be parked on m2's entry queue behind/ahead of M.  The boost must
// re-bucket L in place (WaitQueue::reposition) and the revocation interrupt
// must yank it cleanly out of whichever bucket it sits in.
void rebucket_mid_queue(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  core::RevocableMonitor* m = e.make_monitor("m");
  core::RevocableMonitor* m2 = e.make_monitor("m2");
  Shared* st = ctx.make<Shared>();
  st->probe = st->heap.alloc("probe", 2);  // slot 0: m, slot 1: m2

  s.spawn("L2", 3, [&s, &e, m2, st] {
    e.synchronized(*m2, [&] {
      enter_probe(s, st->probe, 1);
      s.yield_point();
      exit_probe(st->probe, 1);
    });
    ++st->done;
  });
  s.spawn("L", 2, [&s, &e, m, m2, st] {
    e.synchronized(*m, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      e.synchronized(*m2, [&] {
        enter_probe(s, st->probe, 1);
        exit_probe(st->probe, 1);
      });
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  s.spawn("M", 4, [&s, &e, m2, st] {
    e.synchronized(*m2, [&] {
      enter_probe(s, st->probe, 1);
      exit_probe(st->probe, 1);
    });
    ++st->done;
  });
  s.spawn("H", 8, [&s, &e, m, st] {
    e.synchronized(*m, [&] {
      enter_probe(s, st->probe, 0);
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  expect_done(ctx, st, 4);
}

// ---------------------------------------------------------------------------
// Scenario 4 — deadlock-break races.  A and B acquire {a, b} in opposite
// orders (the cycle the engine must break by revocation, §1.1) while C's
// high-priority contention on a can post an inversion revocation against
// the SAME victim the deadlock breaker picks.
void deadlock_break(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  core::RevocableMonitor* a = e.make_monitor("a");
  core::RevocableMonitor* b = e.make_monitor("b");
  Shared* st = ctx.make<Shared>();
  st->probe = st->heap.alloc("probe", 2);  // slot 0: a, slot 1: b

  s.spawn("A", 5, [&s, &e, a, b, st] {
    e.synchronized(*a, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      e.synchronized(*b, [&] {
        enter_probe(s, st->probe, 1);
        s.yield_point();
        exit_probe(st->probe, 1);
      });
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  s.spawn("B", 6, [&s, &e, a, b, st] {
    e.synchronized(*b, [&] {
      enter_probe(s, st->probe, 1);
      s.yield_point();
      e.synchronized(*a, [&] {
        enter_probe(s, st->probe, 0);
        s.yield_point();
        exit_probe(st->probe, 0);
      });
      exit_probe(st->probe, 1);
    });
    ++st->done;
  });
  s.spawn("C", 9, [&s, &e, a, st] {
    e.synchronized(*a, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  expect_done(ctx, st, 3);
}

// ---------------------------------------------------------------------------
// Scenario 5 — biased holder revoked (DESIGN.md §11).  L's first section
// latches the monitor bias; its second entry takes the biased path and then
// yields inside the section, so H's contention must revoke a holder that
// entered without ever touching the entry queue.  The §4 deposit protocol
// has to take over seamlessly: mutual exclusion on the probe, rollback of
// L's partial update, and the reservation beating L's retry.
void biased_holder_revoked(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  core::RevocableMonitor* m = e.make_monitor("m");
  Shared* st = ctx.make<Shared>();
  st->probe = st->heap.alloc("probe", 1);

  s.spawn("L", 2, [&s, &e, m, st] {
    e.synchronized(*m, [] {});  // latches the bias to L
    e.synchronized(*m, [&] {    // biased re-entry
      enter_probe(s, st->probe, 0);
      s.yield_point();
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  // M's acquire also revokes whatever bias is latched at that moment,
  // covering grant/revoke/steal races among three parties.
  s.spawn("M", 4, [&s, &e, m, st] {
    e.synchronized(*m, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  s.spawn("H", 8, [&s, &e, m, st] {
    e.synchronized(*m, [&] {
      enter_probe(s, st->probe, 0);
      s.yield_point();
      exit_probe(st->probe, 0);
    });
    ++st->done;
  });
  expect_done(ctx, st, 3);
}

std::string diag(const ExploreResult& r) {
  std::ostringstream oss;
  oss << "schedules=" << r.schedules << " decisions=" << r.decisions
      << " checks=" << r.checks << " complete=" << r.complete;
  if (r.failed) {
    oss << "\nfailure: " << r.failure << "\ntrace: " << r.failure_trace;
  }
  return oss.str();
}

// ---------------------------------------------------------------------------
// Exhaustive mode

TEST(ExploreExhaustiveTest, RevokeDuringWakeupSpaceIsCleanAndLarge) {
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 2;
  o.max_schedules = 60000;  // safety net; the space completes well below it
  o.name = "revoke_during_wakeup";
  const ExploreResult r = explore(revoke_during_wakeup, o);
  EXPECT_FALSE(r.failed) << diag(r);
  // Acceptance: >= 100 distinct interleavings, all invariants green.
  EXPECT_GE(r.schedules, 100u) << diag(r);
  EXPECT_GT(r.checks, r.schedules) << diag(r);
}

TEST(ExploreExhaustiveTest, NestedPinRevocationSpaceIsClean) {
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 2;
  o.max_schedules = 60000;
  o.name = "nested_pin_revocation";
  const ExploreResult r = explore(nested_pin_revocation, o);
  EXPECT_FALSE(r.failed) << diag(r);
  EXPECT_GE(r.schedules, 50u) << diag(r);
}

TEST(ExploreExhaustiveTest, RebucketMidQueueSpaceIsClean) {
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 1;  // four threads: bound 1 already branches richly
  o.max_schedules = 60000;
  o.name = "rebucket_mid_queue";
  const ExploreResult r = explore(rebucket_mid_queue, o);
  EXPECT_FALSE(r.failed) << diag(r);
  EXPECT_GE(r.schedules, 100u) << diag(r);
}

TEST(ExploreExhaustiveTest, DeadlockBreakSpaceIsClean) {
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 2;
  o.max_schedules = 60000;
  o.name = "deadlock_break";
  const ExploreResult r = explore(deadlock_break, o);
  EXPECT_FALSE(r.failed) << diag(r);
  EXPECT_GE(r.schedules, 100u) << diag(r);
}

TEST(ExploreExhaustiveTest, BiasedHolderRevokedSpaceIsClean) {
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 2;
  o.max_schedules = 60000;
  o.name = "biased_holder_revoked";
  const ExploreResult r = explore(biased_holder_revoked, o);
  EXPECT_FALSE(r.failed) << diag(r);
  EXPECT_GE(r.schedules, 50u) << diag(r);
  EXPECT_GT(r.checks, r.schedules) << diag(r);
}

TEST(ExploreExhaustiveTest, BiasedLazyPathSurvivesExploration) {
  // With invariant sweeps off the explorer installs no lifecycle hook, so
  // the engine's lazy fast path is live during the search: every schedule
  // exercises real biased entries, the materialise-on-write point, and
  // revocation of a frame that started lazy.  The probe (mutual exclusion)
  // and completion assertions still run per schedule.
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 2;
  o.max_schedules = 60000;
  o.check_invariants = false;
  o.name = "biased_holder_revoked_lazy";
  const ExploreResult r = explore(biased_holder_revoked, o);
  EXPECT_FALSE(r.failed) << diag(r);
  EXPECT_GE(r.schedules, 50u) << diag(r);
}

TEST(ExploreExhaustiveTest, EnumerationIsDeterministic) {
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 1;
  o.max_schedules = 500;
  const ExploreResult r1 = explore(revoke_during_wakeup, o);
  const ExploreResult r2 = explore(revoke_during_wakeup, o);
  EXPECT_EQ(r1.schedules, r2.schedules);
  EXPECT_EQ(r1.decisions, r2.decisions);
  EXPECT_EQ(r1.checks, r2.checks);
  EXPECT_FALSE(r1.failed) << diag(r1);
}

// ---------------------------------------------------------------------------
// Random mode

TEST(ExploreRandomTest, SeededTrialsAllGreen) {
  ExploreOptions o;
  o.mode = Mode::kRandom;
  o.trials = 200;
  o.seed = 0xDECAF;
  o.name = "deadlock_break_random";
  const ExploreResult r = explore(deadlock_break, o);
  EXPECT_FALSE(r.failed) << diag(r);
  EXPECT_EQ(r.schedules, 200u);
}

TEST(ExploreRandomTest, SameSeedIsReproducible) {
  ExploreOptions o;
  o.mode = Mode::kRandom;
  o.trials = 25;
  o.seed = 7;
  const ExploreResult r1 = explore(revoke_during_wakeup, o);
  const ExploreResult r2 = explore(revoke_during_wakeup, o);
  EXPECT_EQ(r1.decisions, r2.decisions);
  EXPECT_EQ(r1.checks, r2.checks);
  EXPECT_FALSE(r1.failed) << diag(r1);
}

TEST(ExploreRandomTest, SeedZeroConsultsEnvironment) {
  ASSERT_EQ(::setenv("RVK_EXPLORE_SEED", "424242", 1), 0);
  ExploreOptions env_opts;
  env_opts.mode = Mode::kRandom;
  env_opts.trials = 10;
  env_opts.seed = 0;  // must pick up RVK_EXPLORE_SEED
  const ExploreResult from_env = explore(rebucket_mid_queue, env_opts);
  ::unsetenv("RVK_EXPLORE_SEED");

  ExploreOptions explicit_opts = env_opts;
  explicit_opts.seed = 424242;
  const ExploreResult from_opt = explore(rebucket_mid_queue, explicit_opts);
  EXPECT_EQ(from_env.decisions, from_opt.decisions);
  EXPECT_FALSE(from_env.failed) << diag(from_env);
}

// ---------------------------------------------------------------------------
// The livelock guard

TEST(ExploreGuardTest, RunawayScheduleFailsWithMaxStepsDiagnostic) {
  const Scenario runaway = [](ScenarioContext& ctx) {
    rt::Scheduler& s = ctx.sched();
    s.spawn("spinner", 5, [&s] {
      for (;;) s.yield_point();  // never terminates: the guard must trip
    });
  };
  ExploreOptions o;
  o.mode = Mode::kRandom;
  o.trials = 1;
  o.max_steps = 200;
  const ExploreResult r = explore(runaway, o);
  ASSERT_TRUE(r.failed);
  EXPECT_NE(r.failure.find("max_steps"), std::string::npos) << r.failure;
}

// ---------------------------------------------------------------------------
// Fault injection + replay (the acceptance pair)

// The bug CLAUDE.md warns about: a monitor whose ORDINARY release reserves
// for the best waiter.  Only rollback releases may reserve (§4) — the
// harness's barging invariant must catch this.
class AlwaysReservingMonitor : public core::RevocableMonitor {
 public:
  using core::RevocableMonitor::RevocableMonitor;
  void release() override { release_reserving(); }
};

void broken_barging(ScenarioContext& ctx) {
  rt::Scheduler& s = ctx.sched();
  core::Engine& e = ctx.engine();
  auto* bad = ctx.make<AlwaysReservingMonitor>("bad", e);
  for (int i = 0; i < 2; ++i) {
    s.spawn(std::string("t").append(std::to_string(i)), 5, [&s, &e, bad] {
      e.synchronized(*bad, [&] {
        s.yield_point();
        s.yield_point();
      });
    });
  }
}

ExploreOptions broken_barging_opts() {
  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 2;
  o.name = "broken_barging";
  // No revocations -> no rollback releases: ANY reservation grant is a
  // violation, so the injected fault cannot hide behind a legitimate one.
  o.engine.detection = core::DetectionMode::kNone;
  o.engine.deadlock_detection = false;
  return o;
}

TEST(ExploreFaultInjectionTest, AlwaysReservingMonitorIsCaught) {
  const ExploreResult r = explore(broken_barging, broken_barging_opts());
  ASSERT_TRUE(r.failed) << diag(r);
  EXPECT_NE(r.failure.find("reservation grants"), std::string::npos)
      << r.failure;
  EXPECT_FALSE(r.failure_trace.empty());

  // Acceptance: the archived trace replays byte-for-byte to the SAME
  // failure.
  const ExploreResult again =
      replay(broken_barging, r.failure_trace, broken_barging_opts());
  ASSERT_TRUE(again.failed) << diag(again);
  EXPECT_EQ(again.failure, r.failure);
  EXPECT_EQ(again.failure_trace, r.failure_trace);
}

TEST(ExploreFaultInjectionTest, FailingTraceIsArchivedWhenDirSet) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "rvk_explore_traces";
  std::filesystem::remove_all(dir);
  ASSERT_EQ(::setenv("RVK_EXPLORE_TRACE_DIR", dir.c_str(), 1), 0);
  const ExploreResult r = explore(broken_barging, broken_barging_opts());
  ::unsetenv("RVK_EXPLORE_TRACE_DIR");

  ASSERT_TRUE(r.failed);
  ASSERT_FALSE(r.trace_file.empty());
  std::ifstream f(r.trace_file);
  ASSERT_TRUE(f.is_open()) << r.trace_file;
  std::stringstream contents;
  contents << f.rdbuf();
  // The archived file (headers included) decodes to the recorded trace.
  std::vector<Decision> from_file;
  std::vector<Decision> from_result;
  ASSERT_TRUE(decode_trace(contents.str(), from_file));
  ASSERT_TRUE(decode_trace(r.failure_trace, from_result));
  EXPECT_EQ(from_file, from_result);
  std::filesystem::remove_all(dir);
}

TEST(ExploreReplayTest, DivergenceFromForeignScenarioIsReported) {
  const ExploreResult r = explore(broken_barging, broken_barging_opts());
  ASSERT_TRUE(r.failed);
  // Replaying a two-thread trace against a three-thread scenario cannot
  // match its decision points; the replay must report the divergence rather
  // than silently exploring something else.
  ExploreOptions o;
  o.name = "foreign_replay";
  const ExploreResult rr = replay(revoke_during_wakeup, r.failure_trace, o);
  ASSERT_TRUE(rr.failed) << diag(rr);
  EXPECT_NE(rr.failure.find("replay diverged"), std::string::npos)
      << rr.failure;
}

TEST(ExploreReplayTest, MalformedTraceIsRejected) {
  ExploreOptions o;
  const ExploreResult r = replay(revoke_during_wakeup, "not a trace", o);
  ASSERT_TRUE(r.failed);
  EXPECT_NE(r.failure.find("malformed"), std::string::npos) << r.failure;
}

}  // namespace
}  // namespace rvk::explore
