// Recorder under the schedule-exploration harness: per-schedule run
// boundaries, metric accumulation across explored interleavings, and the
// concurrent-thread ring interleaving the single-run tests cannot produce.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/engine.hpp"
#include "explore/explorer.hpp"
#include "obs/recorder.hpp"

namespace rvk::obs {
namespace {

struct ScopedRecorder {
  explicit ScopedRecorder(RecorderConfig cfg = {}) {
    rec = Recorder::install(cfg);
  }
  ~ScopedRecorder() { Recorder::uninstall(); }
  Recorder* rec;
};

// Two equal-priority threads racing for one monitor; every explored
// schedule begins a fresh recorder run (fresh Scheduler ⇒ recycled thread
// ids and a restarted virtual clock).
void contention_scenario(explore::ScenarioContext& ctx) {
  on_run_begin();
  core::RevocableMonitor* m = ctx.engine().make_monitor("em");
  ctx.sched().spawn("w1", 5, [&ctx, m] {
    ctx.engine().synchronized(*m, [&ctx] {
      for (int i = 0; i < 3; ++i) ctx.sched().yield_point();
    });
  });
  ctx.sched().spawn("w2", 5, [&ctx, m] {
    ctx.engine().synchronized(*m, [&ctx] { ctx.sched().yield_point(); });
  });
}

TEST(ExploreObsTest, MetricsAccumulateAcrossExploredSchedules) {
  ScopedRecorder sr;
  explore::ExploreOptions opts;
  opts.mode = explore::Mode::kExhaustive;
  opts.preemption_bound = 1;
  opts.max_schedules = 64;
  const explore::ExploreResult res =
      explore::explore(contention_scenario, opts);
  EXPECT_FALSE(res.failed) << res.failure;
  ASSERT_GE(res.schedules, 2u);

  // Every schedule acquires the monitor twice; the trace holds the last
  // schedule's two acquisitions.
  int acquires = 0;
  for (const Event& e : sr.rec->snapshot()) {
    acquires += e.kind == EventKind::kMonitorAcquire ? 1 : 0;
  }
  EXPECT_EQ(acquires, 2);

  // Some explored interleaving made w2 (or w1) block: the contention-wait
  // histogram saw at least one sample.
  const Registry::Entry* wait =
      sr.rec->registry().find("monitor.contention_wait_ticks");
  ASSERT_NE(wait, nullptr);
  EXPECT_GE(wait->hist->count(), 1u);
  // Equal priorities: exploration must never have manufactured an
  // "inversion" sample (§4 compares against the deposited priority).
  EXPECT_EQ(sr.rec->registry().find("inversion.resolution_ticks")
                ->hist->count(),
            0u);
}

TEST(ExploreObsTest, LastScheduleTraceInterleavesBothThreads) {
  ScopedRecorder sr;
  explore::ExploreOptions opts;
  opts.mode = explore::Mode::kRandom;
  opts.trials = 8;
  opts.seed = 12345;
  const explore::ExploreResult res =
      explore::explore(contention_scenario, opts);
  EXPECT_FALSE(res.failed) << res.failure;

  // The trace holds the LAST schedule only (begin_run per schedule), with
  // both workers' rings merged in chronological order.
  const auto events = sr.rec->snapshot();
  ASSERT_FALSE(events.empty());
  std::set<std::uint32_t> tids;
  std::set<std::string> lanes;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
      EXPECT_GE(events[i].vclock, events[i - 1].vclock);
    }
    tids.insert(events[i].tid);
    if (events[i].kind == EventKind::kDispatch) {
      EXPECT_LE(events[i].a, 2u);
      lanes.insert(std::string(sr.rec->lane_name(events[i].a)));
    }
  }
  EXPECT_GE(tids.size(), 2u);
  // Every explored schedule re-spawns w1 and w2, but the name table holds
  // each name once: lanes 1 and 2 across all schedules.
  EXPECT_EQ(lanes, (std::set<std::string>{"w1", "w2"}));
}

}  // namespace
}  // namespace rvk::obs
