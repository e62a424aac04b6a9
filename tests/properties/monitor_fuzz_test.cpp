// Monitor fuzzing, rebuilt on the schedule-exploration harness (explore/):
// random operation scripts (nested acquisitions on several monitors,
// wait/notify, yields) executed on many threads, checked against the
// fundamental monitor invariants after every drained schedule.
//
// Both suites drive the scenario with seeded random-walk schedules
// (kRandom): MonitorFuzzTest runs one schedule of each longer op script,
// MonitorFuzzRandomTest many schedules of shorter ones.  A failing schedule
// comes back as a decision trace that replays byte-for-byte (and archives
// to $RVK_EXPLORE_TRACE_DIR under CI).  Seeds parameterize the op scripts;
// executions are deterministic per (seed, schedule).
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "explore/explorer.hpp"
#include "heap/heap.hpp"
#include "jmm/checker.hpp"
#include "jmm/trace.hpp"
#include "rt/scheduler.hpp"

namespace rvk::core {
namespace {

struct FuzzParams {
  std::uint64_t seed;
  int threads;
  int monitors;
  int ops_per_thread;
  bool use_notify;
};

// Per-schedule state, retained by the ScenarioContext so thread bodies
// (which outlive the scenario callback) can reference it safely.
struct FuzzState {
  heap::Heap heap;
  std::vector<RevocableMonitor*> monitors;
  std::vector<heap::HeapObject*> objects;
  // Mutual-exclusion probe lives IN THE HEAP so a revoked execution's
  // occupancy is rolled back along with everything else (a host-side
  // counter would leak increments from revoked executions).  Slot 2 holds
  // the occupant's thread id; it must read 0 at every entry.
  bool exclusion_violated = false;
  int completed = 0;  // bumped OUTSIDE sections: survives rollbacks
};

explore::Scenario make_fuzz_scenario(const FuzzParams& p) {
  return [p](explore::ScenarioContext& ctx) {
    rt::Scheduler& sched = ctx.sched();
    Engine& engine = ctx.engine();
    FuzzState* st = ctx.make<FuzzState>();
    for (int m = 0; m < p.monitors; ++m) {
      st->monitors.push_back(engine.make_monitor("m" + std::to_string(m)));
      // slots: 0 = entry counter, 1 = exit counter, 2 = occupant probe
      st->objects.push_back(st->heap.alloc("o" + std::to_string(m), 3));
    }

    // One trace per schedule, destroyed with the scenario before the engine.
    jmm::Trace* trace = ctx.make<jmm::Trace>(engine);
    for (int t = 0; t < p.threads; ++t) {
      const int priority = 1 + (t % 9);
      sched.spawn("fuzz" + std::to_string(t), priority,
                  [&sched, &engine, st, p, t] {
        // To keep the waits-for relation acyclic BY CONSTRUCTION (this fuzz
        // targets monitor mechanics, not deadlock breaking), nested
        // acquisitions always go from lower to higher monitor index.
        std::function<void(SplitMix64&, std::size_t, int)> section =
            [&](SplitMix64& rng, std::size_t mi, int depth) {
              engine.synchronized(*st->monitors[mi], [&] {
                heap::HeapObject* o = st->objects[mi];
                if (o->get<int>(2) != 0) st->exclusion_violated = true;
                o->set<int>(2,
                            static_cast<int>(sched.current_thread()->id()));
                o->set<int>(0, o->get<int>(0) + 1);
                const std::uint64_t work = rng.next_below(60);
                for (std::uint64_t i = 0; i < work; ++i) sched.yield_point();
                if (depth < 2 && mi + 1 < st->monitors.size() &&
                    rng.next_percent(40)) {
                  const std::size_t next =
                      mi + 1 +
                      static_cast<std::size_t>(
                          rng.next_below(st->monitors.size() - mi - 1));
                  section(rng, next, depth + 1);
                }
                if (p.use_notify && rng.next_percent(20)) {
                  st->monitors[mi]->notify_all();
                }
                o->set<int>(1, o->get<int>(1) + 1);
                o->set<int>(2, 0);
              });
            };
        SplitMix64 rng(p.seed ^ (0xF022 * (t + 1)));
        for (int op = 0; op < p.ops_per_thread; ++op) {
          sched.sleep_for(rng.next_below(80));
          const std::size_t mi =
              static_cast<std::size_t>(rng.next_below(st->monitors.size()));
          if (p.use_notify && rng.next_percent(10)) {
            // Timed wait under the monitor: bounded so the run terminates
            // even when nobody notifies.  (No occupancy probe here — wait
            // releases the monitor mid-section by design.)
            engine.synchronized(*st->monitors[mi], [&] {
              (void)st->monitors[mi]->wait_for(200);
            });
          } else {
            section(rng, mi, 0);
          }
          ++st->completed;
        }
      });
    }

    ctx.after_run([st, &engine, trace, p] {
      if (st->exclusion_violated) {
        throw std::runtime_error("mutual exclusion violated");
      }
      if (st->completed != p.threads * p.ops_per_thread) {
        throw std::runtime_error("only " + std::to_string(st->completed) +
                                 " of " +
                                 std::to_string(p.threads *
                                                p.ops_per_thread) +
                                 " ops completed");
      }
      for (std::size_t m = 0; m < st->monitors.size(); ++m) {
        heap::HeapObject* o = st->objects[m];
        if (o->get<int>(2) != 0) {
          throw std::runtime_error("somebody left 'inside' " +
                                   st->monitors[m]->name());
        }
        if (o->get<int>(0) != o->get<int>(1)) {
          throw std::runtime_error("entries != exits on " +
                                   st->monitors[m]->name());
        }
        if (st->monitors[m]->owner() != nullptr) {
          throw std::runtime_error("monitor " + st->monitors[m]->name() +
                                   " still owned after drain");
        }
      }
      // Engine accounting is consistent even under heavy churn.
      const EngineStats& est = engine.stats();
      if (est.sections_entered !=
          est.sections_committed + est.frames_aborted) {
        throw std::runtime_error("section ledger does not balance");
      }
      const jmm::CheckResult r = jmm::check_consistency(trace->events());
      if (!r.ok()) throw std::runtime_error(r.report());
    });
  };
}

std::string fuzz_diag(const explore::ExploreResult& r) {
  return "schedules=" + std::to_string(r.schedules) +
         "\nfailure: " + r.failure + "\nreplay trace: " + r.failure_trace;
}

// ---------------------------------------------------------------------------
// One seeded random-walk schedule per op script.

class MonitorFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(MonitorFuzzTest, InvariantsHold) {
  explore::ExploreOptions o;
  o.mode = explore::Mode::kRandom;
  o.trials = 1;
  o.seed = 0;  // RVK_EXPLORE_SEED overrides; fixed default otherwise
  o.name = "monitor_fuzz";
  const explore::ExploreResult r =
      explore::explore(make_fuzz_scenario(GetParam()), o);
  EXPECT_FALSE(r.failed) << fuzz_diag(r);
  EXPECT_EQ(r.schedules, 1u);
  EXPECT_GT(r.checks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MonitorFuzzTest,
    ::testing::Values(FuzzParams{0xF001, 4, 2, 12, false},
                      FuzzParams{0xF002, 6, 3, 10, false},
                      FuzzParams{0xF003, 8, 4, 8, false},
                      FuzzParams{0xF004, 5, 2, 10, true},
                      FuzzParams{0xF005, 7, 3, 8, true},
                      FuzzParams{0xF006, 10, 5, 6, true},
                      FuzzParams{0xF007, 3, 1, 20, false},
                      FuzzParams{0xF008, 9, 2, 8, true}),
    [](const ::testing::TestParamInfo<FuzzParams>& info) {
      const FuzzParams& p = info.param;
      return "seed" + std::to_string(p.seed & 0xFFF) + "_t" +
             std::to_string(p.threads) + "m" + std::to_string(p.monitors) +
             (p.use_notify ? "_wn" : "");
    });

// ---------------------------------------------------------------------------
// Random-schedule mode: the same scenario shape under seeded random-walk
// dispatch.  Any failure is a replayable decision trace.

class MonitorFuzzRandomTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(MonitorFuzzRandomTest, InvariantsHoldAcrossRandomSchedules) {
  explore::ExploreOptions o;
  o.mode = explore::Mode::kRandom;
  o.trials = 20;
  o.seed = 0;  // RVK_EXPLORE_SEED overrides; fixed default otherwise
  o.name = "monitor_fuzz_random";
  const explore::ExploreResult r =
      explore::explore(make_fuzz_scenario(GetParam()), o);
  EXPECT_FALSE(r.failed) << fuzz_diag(r);
  EXPECT_EQ(r.schedules, 20u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MonitorFuzzRandomTest,
    ::testing::Values(FuzzParams{0xF101, 4, 2, 6, false},
                      FuzzParams{0xF102, 5, 3, 5, true},
                      FuzzParams{0xF103, 3, 1, 8, false}),
    [](const ::testing::TestParamInfo<FuzzParams>& info) {
      const FuzzParams& p = info.param;
      return "seed" + std::to_string(p.seed & 0xFFF) + "_t" +
             std::to_string(p.threads) + "m" + std::to_string(p.monitors) +
             (p.use_notify ? "_wn" : "");
    });

}  // namespace
}  // namespace rvk::core
