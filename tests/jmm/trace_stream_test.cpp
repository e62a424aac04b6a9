// jmm::Trace as an engine subscriber: the rollback's undo replay reaches the
// obs recorder and the trace from one publish, and a destroyed trace stops
// keeping the biased lazy path (DESIGN.md §11) off.
#include <gtest/gtest.h>

#include <optional>

#include "analysis/hooks.hpp"
#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "jmm/trace.hpp"
#include "obs/recorder.hpp"
#include "rt/scheduler.hpp"

namespace rvk::jmm {
namespace {

struct ScopedRecorder {
  ScopedRecorder() : rec(obs::Recorder::install()) {}
  ~ScopedRecorder() { obs::Recorder::uninstall(); }
  obs::Recorder* rec;
};

TEST(TraceStreamTest, OneUndoReplayReachesRecorderAndTrace) {
  ScopedRecorder recorder;  // outlives the engine, which adopts it
  rt::Scheduler sched;
  core::Engine engine(sched);
  Trace trace(engine);
  heap::Heap heap;
  heap::HeapObject* o = heap.alloc("o", 3);
  core::RevocableMonitor* m = engine.make_monitor("m");

  // Figure 1: hi's entry revokes lo's section after its three stores.
  sched.spawn("lo", 2, [&] {
    engine.synchronized(*m, [&] {
      for (int i = 0; i < 3; ++i) o->set<int>(i, i + 1);
      for (int i = 0; i < 3000; ++i) sched.yield_point();
    });
  });
  sched.spawn("hi", 8, [&] {
    sched.sleep_for(50);
    engine.synchronized(*m, [] {});
  });
  sched.run();

  const core::EngineStats& st = engine.stats();
  ASSERT_EQ(st.rollbacks_completed, 1u);
  EXPECT_EQ(st.words_undone, 3u);

  obs::Registry& reg = recorder.rec->registry();
  EXPECT_EQ(reg.find("log.rollbacks_observed")->value, 1u);
  const obs::Registry::Entry* bytes = reg.find("rollback.bytes_undone");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->hist->count(), 1u);
  EXPECT_EQ(bytes->hist->max(), 3u * 8u);

  std::uint64_t undos = 0;
  for (const Event& e : trace.events()) {
    if (e.kind == EventKind::kUndo) ++undos;
  }
  EXPECT_EQ(undos, st.words_undone);
}

TEST(TraceStreamTest, DestroyedTraceRestoresTheLazyPath) {
  if (analysis::env_enabled()) {
    GTEST_SKIP() << "the analyzer subscribes too, keeping the lazy path off";
  }
  rt::Scheduler sched;
  core::Engine engine(sched);
  std::optional<Trace> trace;
  trace.emplace(engine);
  core::RevocableMonitor* m = engine.make_monitor("m");
  bool lazy_traced = true;
  bool lazy_untraced = false;

  sched.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = sched.current_thread();
    engine.synchronized(*m, [] {});  // latches the bias to t
    engine.synchronized(*m, [&] { lazy_traced = t->lazy_frame; });
    trace.reset();  // unsubscribes: nothing observes the engine now
    engine.synchronized(*m, [&] { lazy_untraced = t->lazy_frame; });
  });
  sched.run();

  EXPECT_FALSE(lazy_traced);
  EXPECT_TRUE(lazy_untraced);
  EXPECT_EQ(m->stats().bias_grants, 2u);
}

}  // namespace
}  // namespace rvk::jmm
