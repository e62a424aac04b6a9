// Queue-churn regression for the O(1) run-queue machinery under the
// analyzer: a schedule that hammers every queue path — monitor entry-queue
// blocking and wakeups, revocation interrupts yanking threads out of
// intrusive lists, timed waits expiring off the deadline heap, and sleep
// churn — must behave bit-identically with RVK_ANALYZE on and off, trace
// every store the sections make, and record zero violations (no switch
// point may be reported inside commit/abort/release even while the queues
// are being relinked underneath them).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/hooks.hpp"
#include "core/engine.hpp"
#include "heap/barriers.hpp"
#include "heap/heap.hpp"
#include "monitor/monitor.hpp"
#include "rt/scheduler.hpp"

namespace rvk::analysis {
namespace {

// Counts the traced writes its engine hands it.
struct WriteCounter final : core::EngineObserver {
  void on_engine_event(const core::EngineEvent& /*e*/) override {}
  void on_access(const heap::TraceAccess& a) override {
    if (a.kind == heap::TraceAccess::Kind::kWrite) ++writes;
  }
  std::uint64_t writes = 0;
};

struct ChurnOutcome {
  int counter = 0;                    // final shared-counter value
  std::uint64_t ticks = 0;            // virtual clock at completion
  std::uint64_t rollbacks = 0;        // revocations completed
  std::uint64_t frames_aborted = 0;
  std::uint64_t sections = 0;
  std::uint64_t timeouts = 0;         // timed waits that expired
  std::uint64_t traced_writes = 0;    // writes a subscriber was handed
  std::uint64_t violations = 0;       // analyzer report size (0 when off)
  std::uint64_t bias_grants = 0;      // biased acquires on the monitor
  std::uint64_t bias_revocations = 0; // bias drops on foreign acquire
};

// One deterministic revocation-heavy schedule with heavy queue churn.  The
// virtual clock makes the interleaving a pure function of the code, so two
// runs may differ only through the analyzer's presence.  The analyzed run
// also subscribes a WriteCounter; the other has no subscriber at all, so it
// takes the unobserved lazy path.
ChurnOutcome run_churn(bool analyze) {
  ChurnOutcome out;
  rt::Scheduler sched;
  core::EngineConfig cfg;
  cfg.analyze = analyze;
  core::Engine engine(sched, cfg);
  WriteCounter counter;
  if (analyze) engine.subscribe(&counter);
  heap::Heap heap;
  core::RevocableMonitor* m = engine.make_monitor("contended");
  monitor::BlockingMonitor cond("cond");
  heap::HeapObject* o = heap.alloc("o", 1);

  // Victim: long sections at low priority; gets revoked mid-section.
  sched.spawn("lo", 2, [&] {
    for (int n = 0; n < 5; ++n) {
      engine.synchronized(*m, [&] {
        o->set<int>(0, o->get<int>(0) + 1);
        for (int i = 0; i < 40; ++i) sched.yield_point();
      });
    }
  });
  // Preemptor: short sections, sleeping between them (timer-heap churn on
  // top of the revocation interrupts it triggers).
  sched.spawn("hi", 8, [&] {
    for (int n = 0; n < 5; ++n) {
      engine.synchronized(*m, [&] { o->set<int>(0, o->get<int>(0) + 1); });
      sched.sleep_for(7);
    }
  });
  // Timed waiter: every wait_for expires (nobody notifies), exercising the
  // deadline heap's timed-block path and the wait-set unlink it implies.
  sched.spawn("mid", 5, [&] {
    for (int n = 0; n < 6; ++n) {
      cond.acquire();
      if (!cond.wait_for(5)) ++out.timeouts;
      cond.release();
    }
  });
  // Filler pack: ready-queue and sleep churn at assorted priorities.
  for (int i = 0; i < 8; ++i) {
    sched.spawn("filler" + std::to_string(i), 3 + (i % 5), [&sched, i] {
      for (int n = 0; n < 10; ++n) {
        sched.sleep_for(static_cast<std::uint64_t>(2 + i % 3));
        sched.yield_now();
      }
    });
  }
  sched.run();

  out.counter = o->get<int>(0);
  out.ticks = sched.now();
  out.rollbacks = engine.stats().rollbacks_completed;
  out.frames_aborted = engine.stats().frames_aborted;
  out.sections = engine.stats().sections_entered;
  out.traced_writes = counter.writes;
  out.bias_grants = m->stats().bias_grants;
  out.bias_revocations = m->stats().bias_revocations;
  if (analyze) out.violations = engine.analyzer()->report().violations.size();
  if (analyze) engine.unsubscribe(&counter);
  return out;
}

TEST(QueueChurnTest, AnalyzerObservesChurnWithoutPerturbingIt) {
  const ChurnOutcome off = run_churn(false);
  const ChurnOutcome on = run_churn(true);

  // The scenario must actually churn: revocations delivered, timed waits
  // expired, stores traced.
  EXPECT_GT(off.rollbacks, 0u);
  EXPECT_EQ(off.timeouts, 6u);
  EXPECT_EQ(off.counter, 10);  // every section retries to completion
  EXPECT_EQ(off.traced_writes, 0u);  // no subscriber: the gate stays shut
  // Each section execution stores once, before its first yield point, so
  // a subscriber is handed exactly one write per section entered.
  EXPECT_EQ(on.traced_writes, on.sections);

  // Identical behaviour with the analyzer installed: same virtual-clock
  // trajectory, same engine traffic.
  EXPECT_EQ(on.counter, off.counter);
  EXPECT_EQ(on.ticks, off.ticks);
  EXPECT_EQ(on.rollbacks, off.rollbacks);
  EXPECT_EQ(on.frames_aborted, off.frames_aborted);
  EXPECT_EQ(on.sections, off.sections);
  EXPECT_EQ(on.timeouts, off.timeouts);

  // Bias bookkeeping is exercised (the two threads keep trading the
  // monitor) and counts identically whether grants come from the engine's
  // lazy fast path (analyzer off) or the monitor's slow path (analyzer on —
  // its frame hook disables lazy entry, but the grant predicate is shared).
  EXPECT_GT(off.bias_grants + off.bias_revocations, 0u);
  EXPECT_EQ(on.bias_grants, off.bias_grants);
  EXPECT_EQ(on.bias_revocations, off.bias_revocations);

  // And the analyzer saw nothing illegal: no switch point inside a
  // forbidden region while queues were relinked, no lockset race, no
  // barrier bypass.
  EXPECT_EQ(on.violations, 0u);
}

}  // namespace
}  // namespace rvk::analysis
