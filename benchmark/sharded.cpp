// sharded2: the bench/shard_scale section mix (gold 4 ops, silver 24,
// bronze 160; 4 workers per tier per shard), run once on 1 and once on 2
// kOsThreads scheduler shards with every 16th section shipped to
// the neighbour shard through DomainSet::remote_call.  The only workload
// that crosses the mailbox and the OS-thread park/wake path.
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "rt/domain.hpp"
#include "workload.hpp"

namespace rvk::bench {
namespace {

struct Tier {
  const char* name;
  int priority;
  int ops;
  std::uint64_t sections;  // over the whole process
};
// The shard_scale mix as is (32k sections): every remote section's helper
// thread keeps a 160 KB undo-log chunk until its shard's scheduler dies, so
// a larger mix costs memory, not information.
constexpr Tier kTiers[] = {
    {"gold", 9, 4, 16'000},
    {"silver", 6, 24, 12'000},
    {"bronze", 3, 160, 4'000},
};
constexpr int kWorkersPerTier = 4;
constexpr std::size_t kAccounts = 64;
constexpr std::uint64_t kRemoteEvery = 16;
constexpr int kQuantum = 50;

struct XorShift {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

// One shard's inputs (generated before the shards start), state and
// outputs (written only on the shard's own thread).
struct ShardState {
  rt::Scheduler* sched = nullptr;
  std::unique_ptr<heap::Heap> heap;
  std::unique_ptr<core::Engine> engine;
  heap::HeapArray<std::uint64_t>* accounts = nullptr;
  std::vector<core::RevocableMonitor*> monitors;
  std::vector<std::vector<std::uint64_t>> picks;  // per tier x worker
  std::uint64_t sections = 0, ops = 0, balance = 0;
  std::vector<std::uint64_t> hi_ticks, lo_ticks;
  std::vector<double> hi_wall_us;
  std::uint64_t digest = 0;
  Counters counters;
  std::vector<std::uint64_t> rtt;  // remote_call round trips, traced only
  std::vector<Span> spans;         // traced only
};

struct ShardedRun {
  RepOut rep;
  std::vector<ShardState> shards;
};

template <class T>
ShardedRun run_sharded(std::size_t nshards, std::uint64_t seed,
                       std::vector<T>& tr) {
  ShardedRun out;
  RepOut& rep = out.rep;
  const double t0 = wall_now();
  rt::DomainSet::Config cfg;
  cfg.shards = nshards;
  cfg.mode = rt::DomainSet::Mode::kOsThreads;
  cfg.sched.quantum = kQuantum;
  cfg.sched.stack_size = 32 * 1024;
  rt::DomainSet set(cfg);
  out.shards.resize(nshards);
  std::vector<ShardState>& shards = out.shards;

  // Inputs: every worker's account picks, from its own stream.
  for (std::size_t home = 0; home < nshards; ++home) {
    for (std::size_t ti = 0; ti < std::size(kTiers); ++ti) {
      for (int w = 0; w < kWorkersPerTier; ++w) {
        XorShift rng{(seed ^ (0x9e3779b97f4a7c15ull * (home + 1)) ^
                      (0xbf58476d1ce4e5b9ull * static_cast<std::uint64_t>(w + 1)) ^
                      (0x94d049bb133111ebull * (ti + 1))) |
                     1};
        std::vector<std::uint64_t> picks(kTiers[ti].sections / nshards /
                                         kWorkersPerTier);
        for (std::uint64_t& pick : picks) pick = rng.next();
        shards[home].picks.push_back(std::move(picks));
      }
    }
  }
  // Set-up ends here: the shards' own set-up spawns fiber stacks (syscalls)
  // on their threads, so it is timed with the run.
  const double t1 = wall_now();

  // One section on the serving shard `sv`: `ops` increments of one
  // account under that account's monitor, one yield point per op.
  auto section = [](ShardState& sv, T& t, Fiber& f, const Tier& tier,
                    std::uint64_t pick, Span* sp) {
    const std::size_t k = pick % kAccounts;
    sv.engine->synchronized(*sv.monitors[k], [&] {
      typename T::BodyScope scope(t, f, sp);
      for (int i = 0; i < tier.ops; ++i) {
        t.set(*sv.accounts, k, t.get(*sv.accounts, k) + 1);
        t.yield(f, Act::kBody);
      }
    });
    sv.ops += static_cast<std::uint64_t>(tier.ops);
    ++sv.sections;
  };

  // The Engine constructor registers a deflation veto in the process-wide
  // MonitorTable before it switches the table into its locked multi-shard
  // mode, so two shards constructing engines at once race on the table's
  // map (ThreadSanitizer reports it).  Construct them one at a time.
  std::mutex engine_mu;
  auto setup = [&](rt::Domain& d) {
    const std::uint16_t home = d.id();
    ShardState& me = shards[home];
    me.sched = &d.sched();
    me.heap = std::make_unique<heap::Heap>();
    {
      const std::lock_guard<std::mutex> serial(engine_mu);
      me.engine = std::make_unique<core::Engine>(d.sched());
    }
    me.accounts = me.heap->alloc_array<std::uint64_t>(kAccounts);
    for (std::size_t a = 0; a < kAccounts; ++a) {
      me.monitors.push_back(me.engine->make_monitor("acct-" + std::to_string(a)));
    }
    for (std::size_t ti = 0; ti < std::size(kTiers); ++ti) {
      for (int w = 0; w < kWorkersPerTier; ++w) {
        d.sched().spawn(std::string(kTiers[ti].name) + std::to_string(w),
                        kTiers[ti].priority, [&, ti, home, w] {
          ShardState& mine = shards[home];
          T& t = tr[home];
          rt::Scheduler& s = *mine.sched;
          const Tier& my_tier = kTiers[ti];
          const std::vector<std::uint64_t>& picks =
              mine.picks[ti * kWorkersPerTier + static_cast<std::size_t>(w)];
          Fiber f(s);
          t.back(Act::kRequest, f);
          for (std::uint64_t i = 0; i < picks.size(); ++i) {
            const std::uint64_t pick = picks[i];
            Span sp;
            sp.id = static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(home) << 24) +
                (static_cast<std::uint64_t>(ti * kWorkersPerTier + w) << 20) + i);
            sp.cls = static_cast<std::uint8_t>(ti);
            sp.shard = static_cast<std::uint8_t>(home);
            const std::uint64_t tick0 = s.now();
            const double wall0 = ti == 0 ? wall_now() : 0.0;
            const bool remote =
                nshards > 1 && i % kRemoteEvery == kRemoteEvery - 1;
            if (remote) {
              // Runs in a helper vthread on the neighbour shard, against
              // the neighbour's engine and accounts, at this tier's priority.
              const auto target = static_cast<std::uint16_t>((home + 1) % nshards);
              sp.spawn = sp.first_run = sp.call = t.call(Act::kRemote, f);
              set.remote_call(target, my_tier.priority, my_tier.name,
                              [&, pick, target, ti] {
                ShardState& peer = shards[target];
                T& pt = tr[target];
                Fiber pf(*peer.sched);
                pt.back(Act::kRequest, pf);
                section(peer, pt, pf, kTiers[ti], pick, nullptr);
                pt.call(Act::kFinish, pf);
              });
              sp.ret = t.back(Act::kBench, f);
              if constexpr (T::kOn) mine.rtt.push_back(sp.ret - sp.call);
            } else {
              sp.spawn = sp.first_run = sp.call = t.call(Act::kEnter, f);
              section(mine, t, f, my_tier, pick, &sp);
              sp.ret = t.back(Act::kBench, f);
            }
            sp.latency_ticks = s.now() - tick0;
            if (ti == 0) {
              mine.hi_ticks.push_back(sp.latency_ticks);
              mine.hi_wall_us.push_back((wall_now() - wall0) * 1e6);
            } else if (ti + 1 == std::size(kTiers)) {
              mine.lo_ticks.push_back(sp.latency_ticks);
            }
            mix(mine.digest, sp.id);
            mix(mine.digest, sp.latency_ticks);
            if constexpr (T::kOn) mine.spans.push_back(sp);
          }
          t.call(Act::kFinish, f);
        });
      }
    }
    if constexpr (T::kOn) tr[home].open();
  };

  auto teardown = [&](rt::Domain& d) {
    ShardState& me = shards[d.id()];
    if constexpr (T::kOn) tr[d.id()].close();
    me.counters.sections = me.sections;
    me.counters.dispatches = d.sched().dispatches();
    me.counters.engine = me.engine->stats();
    for (const core::RevocableMonitor* m : me.monitors) {
      add(me.counters.monitors, m->stats());
    }
    for (std::size_t a = 0; a < kAccounts; ++a) me.balance += me.accounts->get(a);
    me.monitors.clear();
    me.engine.reset();
  };

  set.start(setup, teardown);
  set.join();
  const double t2 = wall_now();

  std::uint64_t balance = 0, ops = 0;
  for (ShardState& s : shards) {
    rep.sections += s.sections;
    balance += s.balance;
    ops += s.ops;
    rep.hi_ticks.insert(rep.hi_ticks.end(), s.hi_ticks.begin(), s.hi_ticks.end());
    rep.lo_ticks.insert(rep.lo_ticks.end(), s.lo_ticks.begin(), s.lo_ticks.end());
    rep.hi_wall_us.insert(rep.hi_wall_us.end(), s.hi_wall_us.begin(),
                          s.hi_wall_us.end());
    mix(rep.digest, s.digest);
  }
  rep.setup_s = t1 - t0;
  rep.run_s = t2 - t1;
  for (const Tier& t : kTiers) rep.offered += t.sections;
  if (rep.sections != rep.offered) rep.error = "sharded run lost sections";
  // Every committed section added exactly its op count to one account.
  if (balance != ops) rep.error = "account balances != committed section ops";
  return out;
}

class Sharded final : public Workload {
 public:
  RepOut rep(std::uint64_t seed) override {
    std::vector<NoTrace> nt(2);
    const ShardedRun one = run_sharded(1, seed, nt);
    const ShardedRun two = run_sharded(2, seed, nt);
    return combine(one.rep, two.rep);
  }

  TracedRep traced_rep(std::uint64_t seed) override {
    TracedRep tr;
    const double plain = calibrate_plain_write_ns();
    std::vector<Ledger> one_l(1, Ledger(kQuantum));
    const ShardedRun one = run_sharded(1, seed, one_l);
    std::vector<Ledger> two_l(2, Ledger(kQuantum));
    for (Ledger& l : two_l) l.set_logged_writes(plain);
    const ShardedRun two = run_sharded(2, seed, two_l);
    tr.conserved = one_l[0].conserved() && two_l[0].conserved() &&
                   two_l[1].conserved();
    tr.ns_per_stamp = two_l[0].ns_per_stamp();
    tr.class_names = {"gold", "silver", "bronze"};

    Counters c;
    std::vector<double> rtt_us;
    for (std::size_t i = 0; i < two.shards.size(); ++i) {
      const ShardState& s = two.shards[i];
      c.sections += s.counters.sections;
      c.dispatches += s.counters.dispatches;
      add(c.engine, s.counters.engine);
      add(c.monitors, s.counters.monitors);
      for (std::uint64_t r : s.rtt) {
        rtt_us.push_back(static_cast<double>(r) * two_l[i].ns_per_stamp() / 1000.0);
      }
      tr.spans.insert(tr.spans.end(), s.spans.begin(), s.spans.end());
    }
    Metrics& m = tr.metrics;
    layer_metrics({&two_l[0], &two_l[1]}, c, plain, m);
    m["rt.remote_calls"] = static_cast<double>(rtt_us.size());
    m["rt.remote_rtt_us_p50"] = nearest_rank(rtt_us, 500);
    m["rt.remote_rtt_us_p99"] = nearest_rank(rtt_us, 990);
    tr.rep = combine(one.rep, two.rep);
    return tr;
  }

  bool deterministic() const override { return false; }

 private:
  // The 2-shard run is the rep; the 1-shard run contributes the digest (it
  // is deterministic) and the baseline for rt.shard_speedup.
  static RepOut combine(const RepOut& one, RepOut two) {
    two.digest = one.digest;
    if (two.error.empty()) two.error = one.error;
    two.extra = {{"sections_per_s_1shard",
                  static_cast<double>(one.sections) / one.run_s},
                 {"run_s_1shard", one.run_s}};
    return two;
  }
};

}  // namespace

std::unique_ptr<Workload> make_sharded() {
  return std::make_unique<Sharded>();
}

}  // namespace rvk::bench
