// The engine's one event stream: every protocol transition is published
// once, through Engine::publish, to the obs recorder and to every subscribed
// EngineObserver.  A subscriber therefore sees exactly the engine events the
// recorder's rings hold, in the same order and with the same payloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "obs/recorder.hpp"
#include "rt/scheduler.hpp"

namespace rvk::core {
namespace {

using K = obs::EventKind;
// (kind, tid, frame, aux) — the fields both sinks carry.
using Seen = std::tuple<K, std::uint32_t, std::uint64_t, std::uint64_t>;

bool is_engine_kind(K k) { return k >= K::kSectionEnter && k <= K::kUnpin; }

struct Capture : EngineObserver {
  void on_engine_event(const EngineEvent& e) override {
    seen.emplace_back(e.kind, e.thread->id(), e.frame, e.aux);
  }
  std::vector<Seen> seen;
};

struct ScopedRecorder {
  ScopedRecorder() : rec(obs::Recorder::install()) {}
  ~ScopedRecorder() { obs::Recorder::uninstall(); }
  obs::Recorder* rec;
};

TEST(EventStreamTest, SubscriberSeesExactlyTheRecordedEngineEvents) {
  ScopedRecorder recorder;  // outlives the engine, which adopts it
  Capture capture;          // outlives the engine it subscribes to
  rt::Scheduler sched;
  Engine engine(sched);
  engine.subscribe(&capture);
  heap::Heap heap;
  heap::HeapObject* o = heap.alloc("o", 1);
  RevocableMonitor* m = engine.make_monitor("m");
  RevocableMonitor* n = engine.make_monitor("n");
  bool lo_in_n = false;

  // Figure 1's inversion on m (request, delivery, abort, retry, commit),
  // then a native call pins lo's section on n, so hi's request against it
  // is refused (§2.2) and the pinned frame unpins at its commit.
  sched.spawn("lo", 2, [&] {
    engine.synchronized(*m, [&] {
      o->set<int>(0, 1);
      for (int i = 0; i < 3000; ++i) sched.yield_point();
    });
    engine.synchronized(*n, [&] {
      NativeCallScope native(engine);
      lo_in_n = true;
      for (int i = 0; i < 1000; ++i) sched.yield_point();
    });
  });
  sched.spawn("hi", 8, [&] {
    sched.sleep_for(50);
    engine.synchronized(*m, [&] { o->set<int>(0, 2); });
    while (!lo_in_n) sched.sleep_for(10);
    engine.synchronized(*n, [] {});
  });
  sched.run();
  engine.unsubscribe(&capture);

  const EngineStats& st = engine.stats();
  EXPECT_EQ(st.rollbacks_completed, 1u);
  EXPECT_EQ(st.revocations_denied_pinned, 1u);
  EXPECT_EQ(st.frames_pinned, 1u);

  std::vector<Seen> recorded;
  for (const obs::Event& ev : recorder.rec->snapshot()) {
    if (is_engine_kind(ev.kind)) {
      recorded.emplace_back(ev.kind, ev.tid, ev.a, ev.b);
    }
  }
  EXPECT_EQ(capture.seen, recorded);

  std::set<K> kinds;
  for (const Seen& s : capture.seen) kinds.insert(std::get<0>(s));
  for (K k : {K::kSectionEnter, K::kSectionCommit, K::kSectionAbort,
              K::kSectionRetry, K::kRevokeRequest, K::kRevokeDeliver,
              K::kRevokeDenied, K::kPin, K::kUndoReplay, K::kUnpin}) {
    EXPECT_EQ(kinds.count(k), 1u) << obs::event_kind_name(k);
  }
}

TEST(EventStreamTest, SubscribersHoldTheAccessGateAndSeeTheirEnginesAccesses) {
  // Each subscription opens the heap's access gate; the engine hands its own
  // threads' accesses to its subscribers, and a subscriber its engine outlives
  // (never unsubscribed) stops holding the gate when the engine dies.
  struct Accesses : EngineObserver {
    void on_engine_event(const EngineEvent&) override {}
    void on_access(const heap::TraceAccess& a) override {
      writes += a.kind == heap::TraceAccess::Kind::kWrite ? 1 : 0;
    }
    int writes = 0;
  };
  Accesses first;
  Accesses left;
  ASSERT_EQ(rt::detail::g_access_observers.load(), 0);
  {
    rt::Scheduler sched;
    Engine engine(sched);
    heap::Heap heap;
    heap::HeapObject* o = heap.alloc("o", 1);
    const int analyzer = engine.analyzer() != nullptr ? 1 : 0;  // RVK_ANALYZE
    engine.subscribe(&first);
    engine.subscribe(&left);
    EXPECT_EQ(rt::detail::g_access_observers.load(), analyzer + 2);
    sched.spawn("w", rt::kNormPriority, [&] { o->set<int>(0, 1); });
    sched.run();
    engine.unsubscribe(&first);
    EXPECT_EQ(rt::detail::g_access_observers.load(), analyzer + 1);
    o->set<int>(0, 2);  // host code: the OS thread's engine
    EXPECT_EQ(first.writes, 1);
    EXPECT_EQ(left.writes, 2);
  }
  EXPECT_EQ(rt::detail::g_access_observers.load(), 0);
}

}  // namespace
}  // namespace rvk::core
