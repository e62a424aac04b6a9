// Recorder: install lifecycle, engine integration (the inversion scenario's
// derived latency metrics), run boundaries, drop accounting, and the
// legacy-stats consolidation shims.
//
// Latency assertions are phrased on the virtual clock (deterministic,
// per-CLAUDE.md); wall-clock values are only checked for monotonicity.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "monitor/monitor.hpp"
#include "obs/recorder.hpp"
#include "rt/scheduler.hpp"

namespace rvk::obs {
namespace {

struct ScopedRecorder {
  explicit ScopedRecorder(RecorderConfig cfg = {}) {
    rec = Recorder::install(cfg);
  }
  ~ScopedRecorder() { Recorder::uninstall(); }
  Recorder* rec;
};

// Figure 1's narrative (mirrors EngineTest.PriorityInversionTriggersRevocation):
// low-priority Tl is preempted mid-section, revoked, and high-priority Th
// enters first.  Runs against whatever recorder is active; `stats`, when
// given, receives the monitor's counters.
void run_inversion_scenario(monitor::MonitorStats* stats = nullptr) {
  rt::Scheduler sched;
  core::Engine engine(sched);
  heap::Heap heap;
  heap::HeapObject* o1 = heap.alloc("o1", 1);
  heap::HeapObject* o2 = heap.alloc("o2", 1);
  core::RevocableMonitor* m = engine.make_monitor("m");
  sched.spawn("Tl", 2, [&] {
    engine.synchronized(*m, [&] {
      o1->set<int>(0, 13);
      for (int i = 0; i < 3000; ++i) sched.yield_point();
      o2->set<int>(0, 13);
    });
  });
  sched.spawn("Th", 8, [&] {
    sched.sleep_for(50);
    engine.synchronized(*m, [&] {
      o1->set<int>(0, 42);
      o2->set<int>(0, 42);
    });
  });
  sched.run();
  if (stats != nullptr) *stats = m->stats();
  ASSERT_EQ(engine.stats().rollbacks_completed, 1u);
}

// Equal priorities: contention but never a revocation.
void run_contended_scenario(int yields) {
  rt::SchedulerConfig scfg;
  scfg.quantum = 1;
  rt::Scheduler sched(scfg);
  core::Engine engine(sched);
  core::RevocableMonitor* m = engine.make_monitor("m");
  sched.spawn("a", 5, [&] {
    engine.synchronized(*m, [&] {
      for (int i = 0; i < yields; ++i) sched.yield_point();
    });
  });
  sched.spawn("b", 5, [&] {
    sched.sleep_for(2);
    engine.synchronized(*m, [] {});
  });
  sched.run();
}

TEST(RecorderTest, InstallUninstallLifecycle) {
  EXPECT_EQ(Recorder::active(), nullptr);
  EXPECT_FALSE(recording());
  {
    ScopedRecorder sr;
    EXPECT_EQ(Recorder::active(), sr.rec);
    EXPECT_TRUE(recording());
  }
  EXPECT_EQ(Recorder::active(), nullptr);
  EXPECT_FALSE(recording());
}

TEST(RecorderTest, EngineObserveFlagOwnsARecorder) {
  ASSERT_EQ(Recorder::active(), nullptr);
  {
    rt::Scheduler sched;
    core::EngineConfig cfg;
    cfg.observe = true;
    core::Engine engine(sched, cfg);
    EXPECT_NE(Recorder::active(), nullptr);
  }
  // The Engine installed it, so the Engine uninstalls it.
  EXPECT_EQ(Recorder::active(), nullptr);
}

TEST(RecorderTest, EngineAdoptsAnExistingRecorder) {
  ScopedRecorder sr;
  {
    rt::Scheduler sched;
    core::EngineConfig cfg;
    cfg.observe = true;
    core::Engine engine(sched, cfg);
    EXPECT_EQ(Recorder::active(), sr.rec);
  }
  // Adopted, not owned: the recorder outlives the Engine, so a harness can
  // accumulate metrics across per-repetition Engine lifetimes.
  EXPECT_EQ(Recorder::active(), sr.rec);
}

TEST(RecorderTest, InversionScenarioStampsDerivedLatencies) {
  ScopedRecorder sr;
  monitor::MonitorStats ms;
  run_inversion_scenario(&ms);
  Registry& reg = sr.rec->registry();

  // Th outranked the deposited owner priority exactly once: one
  // inversion-resolution sample.  Its virtual-clock latency is exactly ZERO
  // ticks — the paper's point (§4): with at-acquire detection the request,
  // delivery, undo replay, and reserving release all run without crossing a
  // yield point, so Th holds the monitor before the clock moves.  (Compare
  // the blocking baseline, where Th would wait out Tl's remaining ~3000
  // yield points.)  The wall-clock twin records the same moment in ns.
  const Registry::Entry* inv = reg.find("inversion.resolution_ticks");
  ASSERT_NE(inv, nullptr);
  ASSERT_TRUE(inv->is_histogram());
  EXPECT_EQ(inv->hist->count(), 1u);
  EXPECT_EQ(inv->hist->max(), 0u);
  EXPECT_EQ(reg.find("inversion.resolution_ns")->hist->count(), 1u);

  // One rollback: request → section-retry, likewise within one tick (the
  // retry event is recorded before the backoff sleep, measuring the
  // mechanism, not the knob), and the bytes its undo replay reverted
  // (exactly o1's one word).
  const Registry::Entry* rb = reg.find("rollback.latency_ticks");
  ASSERT_NE(rb, nullptr);
  EXPECT_EQ(rb->hist->count(), 1u);
  EXPECT_EQ(rb->hist->max(), 0u);
  const Registry::Entry* bytes = reg.find("rollback.bytes_undone");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->hist->count(), 1u);
  EXPECT_GE(bytes->hist->max(), 8u);
  EXPECT_EQ(reg.find("log.rollbacks_observed")->value, 1u);

  // The monitor's own counters: Th contends once, and the revoked Tl
  // contends again on retry (the monitor is reserved for Th).
  EXPECT_GE(ms.acquires, 3u);
  EXPECT_GE(ms.contended, 2u);
  EXPECT_GE(ms.reservations, 1u);  // the rollback's release
}

TEST(RecorderTest, BiasedSectionsKeepZeroTickInversionResolution) {
  // DESIGN.md §11: biased entry must not add latency to the revocation
  // path.  Warm the monitor's bias with repeat acquires, then run the
  // Figure-1 inversion against the biased holder; resolution must still
  // complete in ZERO virtual ticks, exactly as in the unbiased scenario
  // above.  (With a recorder active the engine routes entries through the
  // slow path so they are recorded — the bias word still grants there, and
  // the §4 protocol taking over unchanged is what this test pins down.)
  ScopedRecorder sr;
  rt::Scheduler sched;
  core::Engine engine(sched);
  heap::Heap heap;
  heap::HeapObject* o1 = heap.alloc("o1", 1);
  core::RevocableMonitor* m = engine.make_monitor("m");
  std::uint64_t grants_before_inversion = 0;
  sched.spawn("Tl", 2, [&] {
    for (int i = 0; i < 4; ++i) engine.synchronized(*m, [] {});  // warm bias
    grants_before_inversion = m->stats().bias_grants;
    engine.synchronized(*m, [&] {
      o1->set<int>(0, 13);
      for (int i = 0; i < 3000; ++i) sched.yield_point();
    });
  });
  sched.spawn("Th", 8, [&] {
    sched.sleep_for(50);
    engine.synchronized(*m, [&] { o1->set<int>(0, 42); });
  });
  sched.run();
  ASSERT_EQ(engine.stats().rollbacks_completed, 1u);
  EXPECT_GE(grants_before_inversion, 3u);     // warmup repeats were granted
  EXPECT_GE(m->stats().bias_revocations, 1u);  // Th's arrival dropped it
  const Registry::Entry* inv =
      sr.rec->registry().find("inversion.resolution_ticks");
  ASSERT_NE(inv, nullptr);
  ASSERT_TRUE(inv->is_histogram());
  EXPECT_EQ(inv->hist->count(), 1u);
  EXPECT_EQ(inv->hist->max(), 0u);
  EXPECT_EQ(o1->get<int>(0), 13);  // Tl's retry completed last
}

TEST(RecorderTest, SnapshotIsChronologicalAndNamesThreads) {
  ScopedRecorder sr;
  run_inversion_scenario();
  const auto events = sr.rec->snapshot();
  ASSERT_FALSE(events.empty());
  bool saw_retry = false, saw_revoke = false, saw_contend = false;
  std::set<std::string> names;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
      EXPECT_GE(events[i].vclock, events[i - 1].vclock);
      EXPECT_GE(events[i].wall_ns, events[i - 1].wall_ns);
    }
    saw_retry |= events[i].kind == EventKind::kSectionRetry;
    saw_revoke |= events[i].kind == EventKind::kRevokeRequest;
    saw_contend |= events[i].kind == EventKind::kMonitorContend;
    // Lanes come from tid: each dispatch names its thread's lane.
    if (events[i].kind == EventKind::kDispatch) {
      names.insert(std::string(sr.rec->lane_name(events[i].a)));
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_revoke);
  EXPECT_TRUE(saw_contend);
  EXPECT_TRUE(names.count("Tl"));
  EXPECT_TRUE(names.count("Th"));
}

TEST(RecorderTest, BeginRunClearsTraceKeepsMetricsAndDropCounts) {
  RecorderConfig cfg;
  cfg.ring_capacity = 2;  // force overflow of the shard's one ring
  ScopedRecorder sr(cfg);
  run_contended_scenario(/*yields=*/200);
  const std::uint64_t drops = sr.rec->dropped_events();
  EXPECT_GT(drops, 0u);  // 200 quantum-1 yields cannot fit two slots
  // Both threads share the two slots: no per-thread ring holds more.
  EXPECT_EQ(sr.rec->snapshot().size(), 2u);
  const Registry::Entry* wait =
      sr.rec->registry().find("monitor.contention_wait_ticks");
  ASSERT_NE(wait, nullptr);
  const std::uint64_t samples = wait->hist->count();
  EXPECT_GE(samples, 1u);
  // Unlike the revocation path (zero-tick resolution), an ordinary blocking
  // wait spans real virtual time: the owner executes its 200 yield points
  // while the waiter sits in the entry queue.
  EXPECT_GE(wait->hist->max(), 100u);
  ASSERT_FALSE(sr.rec->snapshot().empty());

  sr.rec->begin_run();
  // The trace is per-run; metrics and loss accounting span the session.
  EXPECT_TRUE(sr.rec->snapshot().empty());
  EXPECT_EQ(sr.rec->dropped_events(), drops);
  EXPECT_EQ(sr.rec->registry().find("monitor.contention_wait_ticks")
                ->hist->count(),
            samples);

  // A second run records into the same ring under recycled thread ids.
  run_contended_scenario(/*yields=*/5);
  EXPECT_EQ(sr.rec->snapshot().size(), 2u);
  EXPECT_GT(sr.rec->dropped_events(), drops);
  EXPECT_GE(sr.rec->registry().find("monitor.contention_wait_ticks")
                ->hist->count(),
            samples + 1);
}

TEST(RecorderTest, BusyThreadEvictsQuietThreadsEventsFromTheShardRing) {
  // Drop-oldest applies to the shard's one ring, not per thread: a quiet
  // thread that ran once early loses its events to a busy one.
  RecorderConfig cfg;
  cfg.ring_capacity = 64;
  ScopedRecorder sr(cfg);
  rt::SchedulerConfig scfg;
  scfg.quantum = 1;
  rt::Scheduler sched(scfg);
  const rt::ThreadId quiet = sched.spawn("quiet", 5, [] {})->id();
  const rt::ThreadId busy = sched.spawn("busy", 5, [&] {
    for (int i = 0; i < 500; ++i) sched.yield_point();
  })->id();
  sched.run();
  const auto events = sr.rec->snapshot();
  ASSERT_EQ(events.size(), 64u);
  EXPECT_GT(sr.rec->dropped_events(), 900u);  // ~2 events per yield
  std::set<rt::ThreadId> tids;
  for (const Event& e : events) tids.insert(e.tid);
  EXPECT_NE(quiet, busy);
  EXPECT_EQ(tids, std::set<rt::ThreadId>{busy});
  // The surviving lane still carries its name.
  bool named = false;
  for (const Event& e : events) {
    if (e.kind == EventKind::kDispatch) {
      named |= sr.rec->lane_name(e.a) == "busy";
    }
  }
  EXPECT_TRUE(named);
}

TEST(RecorderTest, ThreadSpawnedBeforeInstallIsNamedAtFirstDispatch) {
  rt::Scheduler sched;
  sched.spawn("early", 3, [&] { sched.yield_point(); });
  ScopedRecorder sr;
  sched.spawn("late", 4, [&] { sched.yield_point(); });
  sched.run();
  std::set<std::string> names;
  for (const Event& e : sr.rec->snapshot()) {
    if (e.kind == EventKind::kDispatch) {
      names.insert(std::string(sr.rec->lane_name(e.a)));
    }
  }
  EXPECT_EQ(names, (std::set<std::string>{"early", "late"}));
  // A lane index the table never issued names nothing.
  EXPECT_EQ(sr.rec->lane_name(0), "");
  EXPECT_EQ(sr.rec->lane_name(99), "");
}

// An abortable entry that gives up (§14), then a blocking entry by the same
// thread.  `cancel` selects how the first entry ends: a canceller at tick
// 20, or its own 30-tick deadline.  Returns the waiter's ticks around both
// entries: {start, gave_up, acquired}.
struct AbandonTicks {
  std::uint64_t start = 0, gave_up = 0, acquired = 0;
  std::uint32_t tid = 0;
  const void* monitor = nullptr;
};

AbandonTicks run_abandon_then_acquire(bool cancel) {
  rt::Scheduler s;
  monitor::BlockingMonitor m("m");
  AbandonTicks out;
  out.monitor = &m;
  s.spawn("holder", rt::kNormPriority, [&] {
    m.acquire();
    s.sleep_for(100);  // held past both the deadline and the cancel
    m.release();
  });
  rt::VThread* w = s.spawn("waiter", rt::kNormPriority, [&] {
    out.start = s.now();
    EXPECT_FALSE(m.try_enter(cancel ? 1000 : 30));
    out.gave_up = s.now();
    monitor::MonitorBase::clear_cancel(s.current_thread());
    m.acquire();  // contended again, until the holder releases
    out.acquired = s.now();
    m.release();
  });
  out.tid = w->id();
  if (cancel) {
    s.spawn("canceller", rt::kNormPriority, [&s, w] {
      s.sleep_for(20);
      monitor::MonitorBase::cancel(w);
    });
  }
  s.run();
  EXPECT_EQ(m.stats().aborts, 1u);
  EXPECT_EQ(m.stats().cancels, cancel ? 1u : 0u);
  return out;
}

// The abandon path: one kMonitorAbandon ring event (b = 1 when cancelled),
// one exact monitor.abandon_wait_ticks sample, and a closed contention
// window — the later acquire's contention_wait sample spans only its own
// wait, not the abandoned one before it.
void expect_abandon_recorded(bool cancel) {
  ScopedRecorder sr;
  const AbandonTicks tk = run_abandon_then_acquire(cancel);
  ASSERT_GT(tk.gave_up, tk.start);
  ASSERT_GT(tk.acquired, tk.gave_up);
  if (!cancel) {
    EXPECT_EQ(tk.gave_up - tk.start, 30u);
  }

  int abandons = 0;
  for (const Event& e : sr.rec->snapshot()) {
    if (e.kind != EventKind::kMonitorAbandon) continue;
    ++abandons;
    EXPECT_EQ(e.tid, tk.tid);
    EXPECT_EQ(e.a, reinterpret_cast<std::uintptr_t>(tk.monitor));
    EXPECT_EQ(e.b, cancel ? 1u : 0u);
    EXPECT_EQ(e.vclock, tk.gave_up);
  }
  EXPECT_EQ(abandons, 1);

  const Registry& reg = sr.rec->registry();
  const Registry::Entry* abandoned = reg.find("monitor.abandon_wait_ticks");
  ASSERT_NE(abandoned, nullptr);
  EXPECT_EQ(abandoned->hist->count(), 1u);
  EXPECT_EQ(abandoned->hist->max(), tk.gave_up - tk.start);

  const Registry::Entry* wait = reg.find("monitor.contention_wait_ticks");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->hist->count(), 1u);
  EXPECT_EQ(wait->hist->max(), tk.acquired - tk.gave_up);
}

TEST(RecorderTest, TimedOutTryEnterRecordsAbandon) {
  expect_abandon_recorded(/*cancel=*/false);
}

TEST(RecorderTest, CancelledTryEnterRecordsAbandon) {
  expect_abandon_recorded(/*cancel=*/true);
}

TEST(RecorderTest, PublishMetricsConsolidatesLegacyStats) {
  ScopedRecorder sr;
  rt::Scheduler sched;
  core::Engine engine(sched);
  heap::Heap heap;
  heap::HeapObject* o = heap.alloc("o", 1);
  core::RevocableMonitor* m = engine.make_monitor("mon");
  sched.spawn("t", rt::kNormPriority, [&] {
    engine.synchronized(*m, [&] { o->set<int>(0, 1); });
  });
  sched.run();

  engine.publish_metrics(sr.rec->registry());
  // The legacy accessors remain the storage; the registry mirrors them.
  const Registry& reg = sr.rec->registry();
  EXPECT_EQ(reg.find("engine.sections_committed")->value,
            engine.stats().sections_committed);
  EXPECT_EQ(reg.find("engine.log_appends")->value,
            engine.stats().log_appends);
  EXPECT_EQ(reg.find("monitor.mon.stats.acquires")->value,
            m->stats().acquires);
}

// The MonitorTable is process-wide and outlives engines: three engines in
// turn, each inflating one object monitor and publishing into one registry,
// must read as three inflations, not the running totals 1 + 2 + 3.
TEST(RecorderTest, EnginesPublishingInTurnCountEachInflationOnce) {
  ScopedRecorder sr;
  heap::Heap heap;
  for (const char* name : {"a", "b", "c"}) {
    rt::Scheduler sched;
    core::Engine engine(sched);
    heap::HeapObject* o = heap.alloc(name, 1);
    sched.spawn("t", rt::kNormPriority, [&] {
      engine.synchronized(o, [&] { o->set<int>(0, 1); });
    });
    sched.run();
    engine.publish_metrics(sr.rec->registry());
  }
  const Registry& reg = sr.rec->registry();
  EXPECT_EQ(reg.find("montable.inflations")->value, 3u);
  EXPECT_EQ(reg.find("engine.sections_committed")->value, 3u);
}

}  // namespace
}  // namespace rvk::obs
