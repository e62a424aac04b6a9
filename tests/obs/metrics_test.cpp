// Registry: counters, histograms, stable references, JSON export, and the
// legacy-stats consolidation adapters.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "json_lite.hpp"
#include "monitor/monitor.hpp"
#include "obs/metrics.hpp"

namespace rvk::obs {
namespace {

TEST(RegistryTest, CounterFindsOrCreatesWithStableReference) {
  Registry r;
  std::uint64_t& c = r.counter("a");
  c = 3;
  r.counter("b") = 7;  // second entry must not invalidate the first
  c += 1;
  const Registry::Entry* e = r.find("a");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 4u);
  EXPECT_FALSE(e->is_histogram());
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.find("missing"), nullptr);
}

TEST(RegistryTest, HistogramRecordsAndSummarizes) {
  Registry r;
  Histogram& h = r.histogram("lat");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  const Registry::Entry* e = r.find("lat");
  ASSERT_NE(e, nullptr);
  ASSERT_TRUE(e->is_histogram());
  EXPECT_EQ(e->hist->count(), 100u);
  EXPECT_EQ(e->hist->max(), 100u);
  EXPECT_GE(e->hist->percentile(0.95), e->hist->percentile(0.50));
}

TEST(RegistryTest, SetMaxFoldsHighWaterMarks) {
  Registry r;
  r.set_max("hw", 10);
  r.set_max("hw", 4);   // lower: ignored
  r.set_max("hw", 25);  // higher: taken
  EXPECT_EQ(r.find("hw")->value, 25u);
  r.set("hw", 5);  // set() overwrites unconditionally (snapshot semantics)
  EXPECT_EQ(r.find("hw")->value, 5u);
}

TEST(RegistryTest, EntriesKeepInsertionOrder) {
  Registry r;
  r.counter("z");
  r.histogram("a");
  r.counter("m");
  ASSERT_EQ(r.entries().size(), 3u);
  EXPECT_EQ(r.entries()[0]->name, "z");
  EXPECT_EQ(r.entries()[1]->name, "a");
  EXPECT_EQ(r.entries()[2]->name, "m");
}

TEST(RegistryTest, WriteJsonParsesAndEscapes) {
  Registry r;
  r.counter("engine.rollbacks") = 2;
  r.histogram("inversion.resolution_ticks").record(17);
  std::ostringstream os;
  r.write_json(os, {{"figure", "fig5"}, {"quote\"key", "line\nbreak"}});
  const std::string json = os.str();
  EXPECT_TRUE(testjson::valid_json(json)) << json;
  EXPECT_NE(json.find("\"engine.rollbacks\""), std::string::npos);
  EXPECT_NE(json.find("\"run_type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"run_type\": \"histogram\""), std::string::npos);
  // Tail percentile must survive export — the CI macro-smoke gate keys on it.
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
  EXPECT_NE(json.find("\"figure\": \"fig5\""), std::string::npos);
  // Escapes must round-trip through the checker, not corrupt the document.
  EXPECT_NE(json.find("quote\\\"key"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

TEST(RegistryTest, EmptyRegistryStillWritesValidJson) {
  Registry r;
  std::ostringstream os;
  r.write_json(os, {});
  EXPECT_TRUE(testjson::valid_json(os.str())) << os.str();
}

TEST(RegistryTest, PublishAdaptersAccumulateLegacyStructs) {
  Registry r;
  core::EngineStats es;
  es.rollbacks_completed = 2;
  es.words_undone = 9;
  publish(r, es);  // default prefix "engine."
  publish(r, es);  // counters accumulate across repetitions
  EXPECT_EQ(r.find("engine.rollbacks_completed")->value, 4u);
  EXPECT_EQ(r.find("engine.words_undone")->value, 18u);

  monitor::MonitorStats ms;
  ms.acquires = 5;
  ms.reservations = 1;
  publish(r, ms, "monitor.shared.stats.");
  EXPECT_EQ(r.find("monitor.shared.stats.acquires")->value, 5u);
  EXPECT_EQ(r.find("monitor.shared.stats.reservations")->value, 1u);
}

}  // namespace
}  // namespace rvk::obs
