// Revocation-safety analyzer: forbidden-region lint, pin-closure audits,
// and the per-engine lifecycle.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/hooks.hpp"
#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "rt/scheduler.hpp"

namespace rvk::analysis {
namespace {

struct Fixture {
  explicit Fixture(core::EngineConfig cfg = analyzing_config(),
                   rt::SchedulerConfig scfg = {})
      : sched(scfg), engine(sched, cfg) {}

  static core::EngineConfig analyzing_config() {
    core::EngineConfig cfg;
    cfg.analyze = true;
    return cfg;
  }

  const AnalysisReport& report() { return engine.analyzer()->report(); }

  rt::Scheduler sched;
  core::Engine engine;
  heap::Heap heap;
};

TEST(AnalyzerLifecycleTest, EngineInstallsAndUninstalls) {
  EXPECT_FALSE(rt::region_marking());
  {
    Fixture fx;
    EXPECT_NE(fx.engine.analyzer(), nullptr);
    EXPECT_TRUE(rt::region_marking());
  }
  EXPECT_FALSE(rt::region_marking());
}

TEST(ForbiddenRegionTest, YieldPointInsideGuardIsFlagged) {
  // A seeded bug: a yield point inside a marked forbidden region (the class
  // of mistake CLAUDE.md's "never add a yield point inside commit/abort or
  // release paths" invariant forbids).
  Fixture fx;
  fx.sched.spawn("T", rt::kNormPriority, [&fx] {
    rt::VThread* t = fx.sched.current_thread();
    rt::ForbiddenRegionGuard region(t);
    EXPECT_EQ(t->forbidden_region_depth, 1);
    fx.sched.yield_point();
  });
  fx.sched.run();
  EXPECT_EQ(fx.report().count(Violation::Kind::kForbiddenRegion), 1u);
}

TEST(ForbiddenRegionTest, BlockingSleepInsideGuardIsFlagged) {
  Fixture fx;
  fx.sched.spawn("T", rt::kNormPriority, [&fx] {
    rt::ForbiddenRegionGuard region(fx.sched.current_thread());
    fx.sched.sleep_for(3);
  });
  fx.sched.run();
  EXPECT_GE(fx.report().count(Violation::Kind::kForbiddenRegion), 1u);
}

TEST(ForbiddenRegionTest, CommitAbortAndReleasePathsAreClean) {
  // The real engine paths carry the guards now; a contended workload with
  // rollbacks (acquire-time inversion detection) exercises commit, abort,
  // ordinary release, reserving release and the reservation-surrender path
  // without a single switch point inside any of them.
  Fixture fx;
  core::RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  fx.sched.spawn("lo", 2, [&fx, m, o] {
    for (int n = 0; n < 5; ++n) {
      fx.engine.synchronized(*m, [&] {
        o->set<int>(0, o->get<int>(0) + 1);
        for (int i = 0; i < 40; ++i) fx.sched.yield_point();
      });
    }
  });
  fx.sched.spawn("hi", 8, [&fx, m, o] {
    for (int n = 0; n < 5; ++n) {
      fx.engine.synchronized(*m,
                             [&] { o->set<int>(0, o->get<int>(0) + 1); });
      fx.sched.sleep_for(7);
    }
  });
  fx.sched.run();
  EXPECT_GT(fx.engine.stats().rollbacks_completed, 0u)
      << "scenario must actually exercise the abort path";
  EXPECT_EQ(fx.report().violations.size(), 0u);
}

TEST(PinClosureTest, BrokenUpwardClosureIsFlagged) {
  // Synthetic frame stack with the closure inverted: the inner frame is
  // pinned while its enclosing frame is still revocable.  Fed directly to
  // the analyzer (a live engine maintains the invariant, so a breach can
  // only come from a bug — which is what the audit exists to catch).
  Fixture fx;
  core::FrameStack frames;
  frames.push().id = 1;  // outer, revocable
  core::Frame& inner = frames.push();
  inner.id = 2;  // inner, pinned: closure broken
  inner.nonrevocable = true;
  inner.pin_reason = core::PinReason::kManual;
  fx.engine.analyzer()->on_engine_event(
      {obs::EventKind::kPin, nullptr, 2, nullptr, 0, &frames});
  EXPECT_EQ(fx.report().count(Violation::Kind::kPinClosure), 1u);
  // The same persisting breach is not re-reported on later events.
  fx.engine.analyzer()->on_engine_event(
      {obs::EventKind::kPin, nullptr, 2, nullptr, 0, &frames});
  EXPECT_EQ(fx.report().count(Violation::Kind::kPinClosure), 1u);
}

TEST(PinClosureTest, DeliveryIntoPinnedFramesIsFlagged) {
  // A revocation targeting frame 1 unwinds frames 2 and 1; frame 2 is
  // pinned, so the delivery would roll back a non-revocable section.
  Fixture fx;
  core::FrameStack frames;
  frames.push().id = 1;
  core::Frame& inner = frames.push();
  inner.id = 2;
  inner.nonrevocable = true;
  inner.pin_reason = core::PinReason::kWait;
  fx.engine.analyzer()->on_engine_event(
      {obs::EventKind::kRevokeDeliver, nullptr, 1, nullptr, 0, &frames});
  // Both audits fire: the stack breaks upward closure AND the delivery
  // would abort the pinned frame.
  EXPECT_EQ(fx.report().count(Violation::Kind::kPinClosure), 2u);
}

TEST(PinClosureTest, WellFormedPinAndDeliveryAreClean) {
  Fixture fx;
  core::FrameStack frames;
  core::Frame& outer = frames.push();
  outer.id = 1;  // outer pinned, inner revocable: closure holds
  outer.nonrevocable = true;
  outer.pin_reason = core::PinReason::kDependency;
  frames.push().id = 2;
  fx.engine.analyzer()->on_engine_event(
      {obs::EventKind::kPin, nullptr, 1, nullptr, 0, &frames});
  // Delivery targeting only the revocable inner frame is sound.
  fx.engine.analyzer()->on_engine_event(
      {obs::EventKind::kRevokeDeliver, nullptr, 2, nullptr, 0, &frames});
  EXPECT_EQ(fx.report().violations.size(), 0u);
}

TEST(PinClosureTest, EngineBudgetPinKeepsClosureWhenNested) {
  // End-to-end: exhaust the revocation budget against a monitor whose
  // section is *nested*, and verify the engine's budget pin (which used to
  // mark only the contended monitor's frame) keeps the pinned set a prefix.
  core::EngineConfig cfg = Fixture::analyzing_config();
  cfg.revocation_budget = 0;  // first request already over budget
  Fixture fx(cfg);
  core::RevocableMonitor* outer = fx.engine.make_monitor("outer");
  core::RevocableMonitor* inner = fx.engine.make_monitor("inner");
  fx.sched.spawn("lo", 2, [&fx, outer, inner] {
    fx.engine.synchronized(*outer, [&] {
      fx.engine.synchronized(*inner, [&] {
        // Long enough that "hi" wakes and contends while the nested
        // section is still live (quantum is 100 ticks).
        for (int i = 0; i < 400; ++i) fx.sched.yield_point();
      });
    });
  });
  fx.sched.spawn("hi", 8, [&fx, inner] {
    fx.sched.sleep_for(10);
    fx.engine.synchronized(*inner, [] {});
  });
  fx.sched.run();
  EXPECT_GE(fx.engine.stats().revocations_denied_budget, 1u);
  EXPECT_EQ(fx.report().count(Violation::Kind::kPinClosure), 0u);
}

}  // namespace
}  // namespace rvk::analysis
