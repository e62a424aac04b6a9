// Chrome trace-event export: the JSON parses, carries both clock domains,
// survives unpaired slices, and the explore-trace exporter round-trips.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "explore/trace.hpp"
#include "heap/heap.hpp"
#include "json_lite.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
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

TEST(TraceExportTest, RecordedRunExportsValidChronologicalTrace) {
  ScopedRecorder sr;
  {
    rt::Scheduler sched;
    core::Engine engine(sched);
    heap::Heap heap;
    heap::HeapObject* o = heap.alloc("o", 1);
    core::RevocableMonitor* m = engine.make_monitor("m");
    sched.spawn("Tl", 2, [&] {
      engine.synchronized(*m, [&] {
        o->set<int>(0, 1);
        for (int i = 0; i < 500; ++i) sched.yield_point();
      });
    });
    sched.spawn("Th", 8, [&] {
      sched.sleep_for(20);
      engine.synchronized(*m, [&] { o->set<int>(0, 2); });
    });
    sched.run();
  }

  // The merged snapshot the exporter consumes is chronological on both
  // clock domains (the virtual clock is the deterministic one).
  const std::vector<Event> events = sr.rec->snapshot();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].vclock, events[i - 1].vclock);
    EXPECT_GE(events[i].wall_ns, events[i - 1].wall_ns);
  }

  std::ostringstream os;
  sr.rec->export_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(testjson::valid_json(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"Tl (prio 2)\""), std::string::npos);
  EXPECT_NE(json.find("\"Th (prio 8)\""), std::string::npos);
  // Both clock domains reach the viewer: ts is wall-derived, the virtual
  // clock rides in args.
  EXPECT_NE(json.find("\"vclock\""), std::string::npos);
  // The scheduler lane carries complete (X) slices for dispatch→switch.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(TraceExportTest, UnpairedSlicesCloseDefensively) {
  // A contend with no matching acquire, and a dispatch with no switch-out:
  // the exporter must still emit well-formed JSON (truncated slices are
  // closed at the last timestamp) rather than a malformed nesting.
  std::vector<Event> events;
  Event e;
  e.tid = 1;
  e.kind = EventKind::kDispatch;
  e.wall_ns = 1000;
  e.vclock = 1;
  e.seq = 0;
  events.push_back(e);
  e.kind = EventKind::kMonitorContend;
  e.a = 0xDEAD;
  e.b = 7;
  e.wall_ns = 2000;
  e.vclock = 2;
  e.seq = 1;
  events.push_back(e);

  std::ostringstream os;
  write_chrome_trace(events, {}, os);
  EXPECT_TRUE(testjson::valid_json(os.str())) << os.str();
  EXPECT_NE(os.str().find("truncated"), std::string::npos);
}

TEST(TraceExportTest, LanesComeFromTidAndTheLatestDispatch) {
  // Lane 1 names tid 1; its second dispatch (boosted to priority 9) labels
  // the lane.  Tid 2 appears only as a revocation target — its dispatches
  // were evicted — and still gets a lane, named by its tid.  Tid 3's
  // dispatch names a lane the table never issued.
  std::vector<Event> events;
  auto add = [&](std::uint32_t tid, EventKind kind, std::uint64_t a,
                 std::uint64_t b) {
    Event e;
    e.tid = tid;
    e.kind = kind;
    e.a = a;
    e.b = b;
    e.seq = events.size();
    e.wall_ns = 1000 * (events.size() + 1);
    events.push_back(e);
  };
  add(1, EventKind::kDispatch, 1, 5);
  add(2, EventKind::kRevokeRequest, 7, 0);
  add(1, EventKind::kSwitchYield, 0, 0);
  add(1, EventKind::kDispatch, 1, 9);
  add(3, EventKind::kDispatch, 0xFFFFFFFF, 4);

  std::ostringstream os;
  write_chrome_trace(events, {"worker"}, os);
  const std::string json = os.str();
  EXPECT_TRUE(testjson::valid_json(json)) << json;
  EXPECT_NE(json.find("\"worker (prio 9)\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"worker (prio 5)\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"thread 2\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"thread 3 (prio 4)\""), std::string::npos) << json;
}

TEST(TraceExportTest, ExploreDecisionTraceRoundTripsAndExports) {
  const std::vector<explore::Decision> decisions = {
      {3, 1}, {3, 1}, {2, 2}, {1, 2}, {1, 2}, {1, 2}};
  const std::string encoded = explore::encode_trace(decisions);
  std::vector<explore::Decision> decoded;
  ASSERT_TRUE(explore::decode_trace(encoded, decoded));
  EXPECT_EQ(decoded, decisions);

  std::ostringstream os;
  write_decisions_chrome_trace(decisions, os);
  const std::string json = os.str();
  EXPECT_TRUE(testjson::valid_json(json)) << json;
  EXPECT_NE(json.find("explored schedule"), std::string::npos);
  // One slice per decision, each carrying its candidate count.
  EXPECT_NE(json.find("\"candidates\""), std::string::npos);
}

TEST(TraceExportTest, EmptyEventListStillExports) {
  std::ostringstream os;
  write_chrome_trace({}, {}, os);
  EXPECT_TRUE(testjson::valid_json(os.str())) << os.str();
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace rvk::obs
