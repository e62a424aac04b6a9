// Shard scale-out: fixed-seed macro-style workload at 1/2/4 shards
// (DESIGN.md §16).
//
// The same total work — a tiered mix of speculative synchronized sections
// (gold 4 ops / silver 24 / bronze 160, the macro_open tier lengths) over
// per-shard account objects — is split evenly across N scheduler shards
// running on real OS threads (DomainSet kOsThreads).  Every 16th section is
// shipped to the neighbouring shard through the cross-shard mailbox
// (remote_call), so the measured spans include mailbox delivery, helper
// spawning, and the remote requester park/wake protocol, not just
// embarrassingly parallel section execution.
//
// The hop itself is reported as the remote round trip in home ticks: how
// far the requester's own shard clock advanced (other threads running
// there) between shipping a section and resuming, p50 and p99 over every
// shipped section.  A parked requester costs its shard no ticks, so the
// round trip is time spent queued behind other threads, on either shard.
//
// The scaling metric is the *virtual-tick span*: each shard's clock ticks
// once per yield point it executes, so span(N) = max over shards of the
// shard's final clock reading, and speedup(N) = span(1) / span(N).  With a
// perfect work split and zero cross-shard cost speedup(2) would be exactly
// 2.0; every tick below that is mailbox/helper overhead charged to the
// shard that served it.  CI gates speedup(2) >= 1.7 through
// tools/bench_compare.py: the exported "shard_scale/speedup2_gate" entry
// carries real_time = 1700 / speedup2 against a baseline of 500 at the 2x
// threshold, so the gate trips exactly when speedup2 < 1.7.  (Wall-clock
// throughput is reported but never gated — on a single-core runner it
// cannot scale, and that is not what this benchmark claims.)
//
// Knobs: RVK_SEED (workload seed), RVK_SHARD_SCALE_JSON (export path,
// default BENCH_shard_scale.json).
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/histogram.hpp"
#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "rt/domain.hpp"

namespace {

using namespace rvk;

// Total sections per tier across the WHOLE process — divisible by
// shards * workers-per-tier for every N in {1, 2, 4}.
constexpr std::uint64_t kGoldSections = 16'000;   // 4 ops each
constexpr std::uint64_t kSilverSections = 12'000; // 24 ops each
constexpr std::uint64_t kBronzeSections = 4'000;  // 160 ops each
constexpr int kWorkersPerTier = 4;
constexpr int kAccountsPerShard = 64;
constexpr std::uint64_t kRemoteEvery = 16;  // every 16th section ships

struct Tier {
  const char* name;
  int priority;
  int ops;
  std::uint64_t total_sections;
};

constexpr Tier kTiers[] = {
    {"gold", 9, 4, kGoldSections},
    {"silver", 6, 24, kSilverSections},
    {"bronze", 3, 160, kBronzeSections},
};

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 10) : fallback;
}

struct XorShift {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

struct ShardCtx {
  core::Engine* engine = nullptr;
  std::unique_ptr<heap::Heap> heap;
  std::vector<heap::HeapObject*> accounts;
  Histogram latency;  // section duration, virtual ticks of the serving shard
  Histogram remote_rtt;  // shipped sections' round trips, home shard ticks
  std::uint64_t span_ticks = 0;
  std::uint64_t sections_done = 0;
};

struct Outcome {
  std::uint64_t span_ticks = 0;  // max over shards
  std::uint64_t total_ticks = 0; // sum over shards (work conservation)
  double wall_s = 0.0;
  Histogram latency;             // merged over shards
  Histogram remote_rtt;          // merged over shards
};

// One synchronized section on `shard`'s engine: `ops` increments of a
// pseudo-randomly chosen account, one yield point per op (the §4.1 tick
// discipline), recorded into that shard's latency histogram.
void run_section(ShardCtx& shard, rt::Scheduler& sched, const Tier& tier,
                 std::uint64_t pick) {
  heap::HeapObject* acct =
      shard.accounts[pick % static_cast<std::uint64_t>(kAccountsPerShard)];
  const std::uint64_t t0 = sched.now();
  shard.engine->synchronized(acct, [&] {
    for (int k = 0; k < tier.ops; ++k) {
      acct->set<std::uint64_t>(0, acct->get<std::uint64_t>(0) + 1);
      sched.yield_point();
    }
  });
  shard.latency.record(sched.now() - t0);
  ++shard.sections_done;
}

Outcome run(std::size_t nshards, std::uint64_t seed) {
  rt::DomainSet::Config cfg;
  cfg.shards = nshards;
  cfg.mode = rt::DomainSet::Mode::kOsThreads;
  cfg.sched.quantum = 50;
  cfg.sched.stack_size = 32 * 1024;
  rt::DomainSet set(cfg);

  std::vector<ShardCtx> shards(nshards);

  const auto t0 = std::chrono::steady_clock::now();
  set.start(
      [&](rt::Domain& d) {
        ShardCtx& me = shards[d.id()];
        me.heap = std::make_unique<heap::Heap>();
        me.engine = new core::Engine(d.sched());  // binds the entered domain
        me.accounts.reserve(kAccountsPerShard);
        for (int a = 0; a < kAccountsPerShard; ++a) {
          me.accounts.push_back(
              me.heap->alloc("acct" + std::to_string(a), 8));
        }
        for (std::size_t ti = 0; ti < std::size(kTiers); ++ti) {
          const Tier& tier = kTiers[ti];
          const std::uint64_t per_worker =
              tier.total_sections / nshards / kWorkersPerTier;
          for (int w = 0; w < kWorkersPerTier; ++w) {
            const std::uint64_t wseed =
                seed ^ (0x9e3779b97f4a7c15ull * (d.id() + 1)) ^
                (0xbf58476d1ce4e5b9ull * static_cast<std::uint64_t>(w + 1)) ^
                (0x94d049bb133111ebull * (ti + 1));
            d.sched().spawn(
                std::string(tier.name) + std::to_string(w), tier.priority,
                [&, per_worker, wseed, shard_id = d.id()] {
                  XorShift rng{wseed | 1};
                  for (std::uint64_t i = 0; i < per_worker; ++i) {
                    const std::uint64_t pick = rng.next();
                    if (nshards > 1 && i % kRemoteEvery == kRemoteEvery - 1) {
                      // Ship this section to the neighbour: it runs in a
                      // helper vthread on the neighbour's shard, against the
                      // neighbour's engine and accounts, at this tier's
                      // priority.
                      const auto target = static_cast<std::uint16_t>(
                          (shard_id + 1) % nshards);
                      ShardCtx& mine = shards[shard_id];
                      rt::Scheduler& home = mine.engine->scheduler();
                      const std::uint64_t sent = home.now();
                      set.remote_call(
                          target, tier.priority, tier.name, [&, pick, target] {
                            ShardCtx& peer = shards[target];
                            run_section(peer, peer.engine->scheduler(), tier,
                                        pick);
                          });
                      mine.remote_rtt.record(home.now() - sent);
                    } else {
                      ShardCtx& mine = shards[shard_id];
                      run_section(mine, mine.engine->scheduler(), tier, pick);
                    }
                  }
                });
          }
        }
      },
      [&](rt::Domain& d) {
        ShardCtx& me = shards[d.id()];
        me.span_ticks = d.sched().now();
        delete me.engine;
        me.engine = nullptr;
      });
  set.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  Outcome o;
  o.wall_s = wall_s;
  std::uint64_t sections = 0;
  for (ShardCtx& s : shards) {
    if (s.span_ticks > o.span_ticks) o.span_ticks = s.span_ticks;
    o.total_ticks += s.span_ticks;
    sections += s.sections_done;
    o.latency.merge(s.latency);
    o.remote_rtt.merge(s.remote_rtt);
  }
  const std::uint64_t expected =
      kGoldSections + kSilverSections + kBronzeSections;
  RVK_CHECK_MSG(sections == expected,
                "shard_scale lost sections: work split is broken");
  return o;
}

}  // namespace

int main() {
  const std::uint64_t seed = env_u64("RVK_SEED", 42);
  const char* json_env = std::getenv("RVK_SHARD_SCALE_JSON");
  const std::string json_path = json_env != nullptr && *json_env != '\0'
                                    ? json_env
                                    : "BENCH_shard_scale.json";
  const std::uint64_t total_sections =
      kGoldSections + kSilverSections + kBronzeSections;

  std::printf(
      "shard_scale: fixed-seed tiered section workload vs shard count\n"
      "(total work constant: %llu sections; every %lluth section ships to\n"
      "the neighbour shard via the cross-shard mailbox; seed %llu)\n\n",
      static_cast<unsigned long long>(total_sections),
      static_cast<unsigned long long>(kRemoteEvery),
      static_cast<unsigned long long>(seed));
  std::printf("%-8s %14s %16s %12s %12s %10s\n", "shards", "span ticks",
              "sections/ktick", "p99 ticks", "max ticks", "wall s");

  std::vector<std::size_t> shard_counts{1, 2, 4};
  std::vector<Outcome> outcomes;
  for (std::size_t n : shard_counts) {
    outcomes.push_back(run(n, seed));
    const Outcome& o = outcomes.back();
    std::printf("%-8zu %14llu %16.1f %12llu %12llu %10.3f\n", n,
                static_cast<unsigned long long>(o.span_ticks),
                1000.0 * static_cast<double>(total_sections) /
                    static_cast<double>(o.span_ticks),
                static_cast<unsigned long long>(o.latency.percentile(0.99)),
                static_cast<unsigned long long>(o.latency.max()),
                o.wall_s);
  }

  const double speedup2 = static_cast<double>(outcomes[0].span_ticks) /
                          static_cast<double>(outcomes[1].span_ticks);
  const double speedup4 = static_cast<double>(outcomes[0].span_ticks) /
                          static_cast<double>(outcomes[2].span_ticks);
  std::printf("\nvirtual-tick speedup: 2 shards %.2fx, 4 shards %.2fx\n",
              speedup2, speedup4);
  std::printf("remote round trip, home ticks:");
  for (std::size_t i = 1; i < shard_counts.size(); ++i) {
    const Histogram& rtt = outcomes[i].remote_rtt;
    std::printf("%s %zu shards p50 %llu p99 %llu", i > 1 ? ";" : "",
                shard_counts[i],
                static_cast<unsigned long long>(rtt.percentile(0.50)),
                static_cast<unsigned long long>(rtt.percentile(0.99)));
  }
  std::printf("\n");

  {
    std::ofstream os(json_path);
    RVK_CHECK_MSG(os.good(), "cannot open shard_scale JSON export path");
    os << "{\n  \"context\": {\"bench\": \"shard_scale\", \"seed\": \""
       << seed << "\"},\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < shard_counts.size(); ++i) {
      const Outcome& o = outcomes[i];
      const std::string p =
          "shard_scale/shards=" + std::to_string(shard_counts[i]) + "/";
      os << "    {\"name\": \"" << p
         << "span_ticks\", \"run_type\": \"counter\", \"value\": "
         << o.span_ticks << "},\n";
      os << "    {\"name\": \"" << p
         << "total_ticks\", \"run_type\": \"counter\", \"value\": "
         << o.total_ticks << "},\n";
      os << "    {\"name\": \"" << p
         << "p99_ticks\", \"run_type\": \"counter\", \"value\": "
         << o.latency.percentile(0.99) << "},\n";
      if (o.remote_rtt.count() == 0) continue;  // one shard ships nothing
      os << "    {\"name\": \"" << p
         << "remote_rtt_ticks_p50\", \"run_type\": \"counter\", \"value\": "
         << o.remote_rtt.percentile(0.50) << "},\n";
      os << "    {\"name\": \"" << p
         << "remote_rtt_ticks_p99\", \"run_type\": \"counter\", \"value\": "
         << o.remote_rtt.percentile(0.99) << "},\n";
    }
    // The CI gate: real_time = 1700 / speedup2 vs a baseline of 500 at the
    // 2x bench_compare threshold fails exactly when speedup2 < 1.7.
    os << "    {\"name\": \"shard_scale/speedup2_gate\", \"run_type\": "
          "\"iteration\", \"iterations\": 1, \"real_time\": "
       << (1700.0 / speedup2) << ", \"cpu_time\": " << (1700.0 / speedup2)
       << ", \"time_unit\": \"ns\"}\n  ]\n}\n";
  }
  std::printf("wrote %s\n\n", json_path.c_str());

  std::printf(
      "Expected shape: virtual-tick span halves from 1 to 2 shards and\n"
      "halves again to 4 (each shard owns 1/N of the fixed section mix;\n"
      "cross-shard sections move work, not duplicate it), so tick speedup\n"
      "sits near N (slightly above: fewer workers per shard means fewer\n"
      "contended-monitor re-yields).  A parked requester costs its shard\n"
      "no ticks, so the gated 1.7x floor at 2 shards is not a budget for\n"
      "mailbox delivery: it is a margin for the shards' spans diverging,\n"
      "since message arrival order is OS timing and spans vary by a few\n"
      "ticks run-to-run.  The hop shows in the remote round trip instead:\n"
      "a shipped section's helper and its woken requester each run at\n"
      "their shard's next dispatch, so p50 is about a hundred home ticks\n"
      "(the shards' running threads reaching that dispatch); p99 is the\n"
      "wake of a parked peer and swings with OS timing.  p99 section ticks\n"
      "SHRINK with shard count: a section's tick span counts every yield\n"
      "its shard interleaves, and each shard hosts fewer unrelated-tier\n"
      "workers as N grows.  Wall time does not scale on a single-core\n"
      "runner and is deliberately not gated.\n");
  return 0;
}
