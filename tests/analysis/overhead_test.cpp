// Negative regression: with the analyzer off (RVK_ANALYZE=0 and
// EngineConfig::analyze=false), the engine has no analyzer, the access gate
// stays shut and regions stay unmarked, so the per-access cost is exactly
// the seed's barrier fast path plus one predicted relaxed load of a zero
// count per trace point (and one field test per yield point).  Wall-clock
// thresholds are flaky on shared runners (CLAUDE.md), so the check is
// structural and counter-based; the timing companion is
// bench/micro_barriers, whose analyzer-off numbers must stay within
// run-to-run noise of the seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "analysis/hooks.hpp"
#include "core/engine.hpp"
#include "heap/barriers.hpp"
#include "heap/heap.hpp"
#include "rt/scheduler.hpp"

namespace rvk::analysis {
namespace {

// Pins RVK_ANALYZE=0 for the test's duration so the result does not depend
// on the environment ctest was invoked under; restores the old value.
struct EnvOff {
  EnvOff() {
    const char* old = std::getenv("RVK_ANALYZE");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    ::setenv("RVK_ANALYZE", "0", /*overwrite=*/1);
  }
  ~EnvOff() {
    if (had_) {
      ::setenv("RVK_ANALYZE", saved_.c_str(), 1);
    } else {
      ::unsetenv("RVK_ANALYZE");
    }
  }
  bool had_ = false;
  std::string saved_;
};

TEST(AnalyzerOffTest, NoHooksInstalledAndRegionsUnmarked) {
  EnvOff env;
  rt::Scheduler sched;
  core::Engine engine(sched);  // default config: analyze=false
  EXPECT_EQ(engine.analyzer(), nullptr);
  EXPECT_EQ(rt::detail::g_access_observers.load(), 0);
  EXPECT_FALSE(rt::region_marking());
}

TEST(AnalyzerOffTest, ContendedWorkloadPaysNoMarkingCost) {
  // Run a revocation-heavy schedule with the analyzer off and verify the
  // zero-overhead contract at every seam it touches: no region depth ever
  // accumulates (the guards compile to a null-captured no-op), and the
  // engine's commit/abort/release guards leave no residue.
  EnvOff env;
  rt::Scheduler sched;
  core::Engine engine(sched);
  heap::Heap heap;
  core::RevocableMonitor* m = engine.make_monitor("m");
  heap::HeapObject* o = heap.alloc("o", 1);
  int depth_seen = 0;
  int depth_at_exit = 0;  // each thread's residue, read as it finishes
  sched.spawn("lo", 2, [&] {
    for (int n = 0; n < 5; ++n) {
      engine.synchronized(*m, [&] {
        o->set<int>(0, o->get<int>(0) + 1);
        for (int i = 0; i < 40; ++i) {
          sched.yield_point();
          depth_seen += sched.current_thread()->forbidden_region_depth;
        }
      });
    }
    depth_at_exit += sched.current_thread()->forbidden_region_depth;
  });
  sched.spawn("hi", 8, [&] {
    for (int n = 0; n < 5; ++n) {
      engine.synchronized(*m, [&] { o->set<int>(0, o->get<int>(0) + 1); });
      sched.sleep_for(7);
    }
    depth_at_exit += sched.current_thread()->forbidden_region_depth;
  });
  sched.run();
  EXPECT_GT(engine.stats().rollbacks_completed, 0u);
  EXPECT_EQ(depth_seen, 0) << "ForbiddenRegionGuard must be inert when off";
  EXPECT_EQ(depth_at_exit, 0);
  EXPECT_EQ(engine.analyzer(), nullptr);
}

TEST(AnalyzerOffTest, GuardIsInertWithoutMarking) {
  // Constructing the RAII guard outside an analyzer session must not touch
  // the thread at all — this is what keeps commit_frame/do_release free.
  EnvOff env;
  rt::Scheduler sched;
  sched.spawn("T", rt::kNormPriority, [&] {
    rt::VThread* t = sched.current_thread();
    rt::ForbiddenRegionGuard g(t);
    EXPECT_EQ(t->forbidden_region_depth, 0);
  });
  sched.run();
}

TEST(AnalyzerOffTest, EnvFlagParsesLikeHarnessFlags) {
  EnvOff env;  // RVK_ANALYZE=0 pinned
  EXPECT_FALSE(env_enabled());
  ::setenv("RVK_ANALYZE", "1", 1);
  EXPECT_TRUE(env_enabled());
  ::setenv("RVK_ANALYZE", "", 1);
  EXPECT_FALSE(env_enabled());
}

}  // namespace
}  // namespace rvk::analysis
