// Open-loop driver: determinism, give-up/shed accounting, ledger
// conservation across all four protocols (DESIGN.md §15).  Everything runs
// on the virtual clock — assertions are exact, never wall-clock.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "obs/recorder.hpp"
#include "svc/driver.hpp"

namespace rvk::svc {
namespace {

OpenLoopConfig small_config(Protocol proto, std::uint64_t seed = 42) {
  OpenLoopConfig cfg;
  cfg.arrivals.rate = kProbOne / 110;  // ~80% of the default-mix capacity
  cfg.service.protocol = proto;
  cfg.duration = 6000;
  cfg.seed = seed;
  return cfg;
}

void expect_nothing_vanished(const OpenLoopResult& r, std::size_t tiers) {
  std::uint64_t offered = 0;
  for (std::size_t t = 0; t < tiers; ++t) offered += r.recorder.offered(t);
  EXPECT_EQ(offered, r.arrivals);  // completed + giveups + sheds == injected
}

TEST(OpenLoopDriverTest, DeterministicUnderFixedSeed) {
  const OpenLoopConfig cfg = small_config(Protocol::kRevocation);
  const OpenLoopResult a = run_open_loop(cfg);
  const OpenLoopResult b = run_open_loop(cfg);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.total_ticks, b.total_ticks);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.max_in_flight_seen, b.max_in_flight_seen);
  for (std::size_t t = 0; t < a.recorder.tier_count(); ++t) {
    EXPECT_EQ(a.recorder.completed(t), b.recorder.completed(t)) << t;
    EXPECT_EQ(a.recorder.giveups(t), b.recorder.giveups(t)) << t;
    EXPECT_EQ(a.recorder.sheds(t), b.recorder.sheds(t)) << t;
    EXPECT_EQ(a.recorder.latency(t).max(), b.recorder.latency(t).max()) << t;
    EXPECT_EQ(a.recorder.latency(t).percentile(0.99),
              b.recorder.latency(t).percentile(0.99))
        << t;
  }

  // A different seed must actually change the run (the knob is live).
  const OpenLoopResult c = run_open_loop(small_config(Protocol::kRevocation, 7));
  EXPECT_NE(a.arrivals, c.arrivals);
}

TEST(OpenLoopDriverTest, AllProtocolsCompleteWorkAndConserveLedger) {
  for (const Protocol proto : kAllProtocols) {
    const OpenLoopResult r = run_open_loop(small_config(proto));
    SCOPED_TRACE(protocol_name(proto));
    EXPECT_GT(r.arrivals, 0u);
    expect_nothing_vanished(r, r.recorder.tier_count());
    // At 80% load every protocol completes the bulk of the traffic.
    std::uint64_t completed = 0;
    for (std::size_t t = 0; t < r.recorder.tier_count(); ++t) {
      completed += r.recorder.completed(t);
    }
    EXPECT_GT(completed, r.arrivals * 3 / 4);
    EXPECT_EQ(r.ledger_final, r.ledger_initial);
    if (proto != Protocol::kRevocation) {
      EXPECT_EQ(r.rollbacks, 0u);
    }
  }
}

TEST(OpenLoopDriverTest, MissedDeadlinesAreCountedGiveUpsNotHangs) {
  // Deadlines far below the contended wait: a hot tier that can never wait
  // out a slow section, injected at well over capacity.  The run must
  // terminate (virtual clock, no wedge) with every arrival accounted for.
  for (const Protocol proto : kAllProtocols) {
    OpenLoopConfig cfg;
    cfg.tiers = {
        {"hot", 9, 3, 1, 4},      // 3-tick entry budget: gives up under load
        {"slow", 3, 20'000, 1, 300},
    };
    cfg.arrivals.rate = kProbOne / 60;
    cfg.service.protocol = proto;
    cfg.service.shards = 1;  // maximize contention
    cfg.duration = 6000;
    cfg.seed = 42;
    const OpenLoopResult r = run_open_loop(cfg);
    SCOPED_TRACE(protocol_name(proto));
    expect_nothing_vanished(r, 2);
    EXPECT_GT(r.recorder.giveups(0), 0u);  // hot tier missed SLOs, counted
    EXPECT_EQ(r.ledger_final, r.ledger_initial);
  }
}

TEST(OpenLoopDriverTest, AdmissionCapShedsAndCounts) {
  OpenLoopConfig cfg = small_config(Protocol::kBlocking);
  cfg.arrivals.rate = kProbOne / 30;  // ~3x capacity
  cfg.max_in_flight = 2;
  const OpenLoopResult r = run_open_loop(cfg);
  std::uint64_t sheds = 0;
  for (std::size_t t = 0; t < r.recorder.tier_count(); ++t) {
    sheds += r.recorder.sheds(t);
  }
  EXPECT_GT(sheds, 0u);
  EXPECT_LE(r.max_in_flight_seen, 2u);
  expect_nothing_vanished(r, r.recorder.tier_count());
}

TEST(OpenLoopDriverTest, LatencyChargedFromScheduledArrival) {
  // One tier, serial sections longer than the mean gap: queueing delay must
  // show up in the recorded latency (open loop — no coordinated omission).
  OpenLoopConfig cfg;
  cfg.tiers = {{"only", 5, 100'000, 1, 50}};
  cfg.arrivals.rate = kProbOne / 40;  // gap 40 ticks < 50-tick sections
  cfg.service.protocol = Protocol::kBlocking;
  cfg.service.shards = 1;
  cfg.duration = 4000;
  cfg.seed = 42;
  const OpenLoopResult r = run_open_loop(cfg);
  ASSERT_GT(r.recorder.completed(0), 10u);
  // Mean latency must exceed the bare section cost: the backlog is charged.
  EXPECT_GT(r.recorder.latency(0).mean(), 50.0);
}

// The per-monitor counters a run publishes into the active recorder.
std::map<std::string, std::uint64_t> monitor_counters(obs::Recorder& rec) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& e : rec.registry().entries()) {
    if (e->name.starts_with("monitor.") && !e->is_histogram()) {
      out[e->name] = e->value;
    }
  }
  return out;
}

// One recorder spanning runs of two protocols, as bench/macro_open's does:
// each protocol's monitors publish under keys of their own, so the second
// run adds keys and leaves the first run's counters as they were.
TEST(OpenLoopDriverTest, ProtocolsPublishDisjointMonitorKeys) {
  obs::Recorder* rec = obs::Recorder::install();
  run_open_loop(small_config(Protocol::kBlocking));
  const auto blocking = monitor_counters(*rec);
  run_open_loop(small_config(Protocol::kRevocation));
  const auto both = monitor_counters(*rec);
  obs::Recorder::uninstall();

  ASSERT_FALSE(blocking.empty());
  std::size_t revocation_keys = 0;
  for (const auto& [name, value] : both) {
    const auto it = blocking.find(name);
    if (it == blocking.end()) {
      EXPECT_TRUE(name.starts_with("monitor.revocation/shard-")) << name;
      ++revocation_keys;
    } else {
      EXPECT_TRUE(name.starts_with("monitor.blocking/shard-")) << name;
      EXPECT_EQ(value, it->second) << name;
    }
  }
  EXPECT_GT(revocation_keys, 0u);
  EXPECT_TRUE(both.contains("monitor.blocking/shard-0.stats.contended"));
  EXPECT_TRUE(both.contains("monitor.revocation/shard-0.stats.contended"));
}

}  // namespace
}  // namespace rvk::svc
