// open_revocation / open_blocking: open-loop Poisson traffic over the default
// gold/silver/bronze tiers against a 4-shard bank ledger.  The request path
// is the library's svc::run_open_loop + BankService::execute, restated here
// so the benchmark can stamp every layer boundary; cross_check() holds the
// restatement to svc::run_open_loop's exact tick results.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "monitor/monitor.hpp"
#include "svc/arrivals.hpp"
#include "svc/driver.hpp"
#include "svc/tiers.hpp"
#include "workload.hpp"

namespace rvk::bench {
namespace {

// Mean section length of the default tier mix in ticks, (2*4 + 3*24 +
// 5*160) / 10: the service saturates at one request per kMeanOps ticks, so
// rho is the offered rate times kMeanOps (as in bench/macro_open).
constexpr std::uint64_t kMeanOps = 88;
constexpr std::uint64_t kInitialBalance = 1000;
constexpr std::uint64_t kSweepSeeds = 8;  // rep seeds pooled per sweep point

std::uint32_t rate_for_rho(unsigned rho_pct) {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(svc::kProbOne) * rho_pct) /
      (100 * kMeanOps));
}

struct OpenCfg {
  bool revocation = true;
  // Offered load: the highest grid point at which neither protocol gives a
  // request up (revocation starts shedding bronze give-ups near rho=60).
  unsigned rho = 50;
  // Injection window per rep.  Each finished request thread keeps its first
  // 160 KB undo-log chunk until the rep's scheduler dies, so peak memory
  // grows with requests per rep; short windows pooled over the run's rep
  // seeds keep it near 200 MB.
  std::uint64_t window = 250'000;
  // svc::OpenLoopConfig / ServiceConfig defaults.
  int quantum = 50;
  std::size_t stack_size = 32 * 1024;
  int max_in_flight = 16384;
  int shards = 4;
  int accounts = 64;
};

// The bank ledger of svc::BankService: one account array and one monitor
// per shard.  Declared after the scheduler it runs on, so it dies first.
struct Bank {
  struct Shard {
    heap::HeapArray<std::uint64_t>* accounts = nullptr;
    core::RevocableMonitor* revocable = nullptr;
    std::unique_ptr<monitor::BlockingMonitor> blocking;
  };

  Bank(rt::Scheduler& sched, const OpenCfg& cfg) {
    if (cfg.revocation) engine = std::make_unique<core::Engine>(sched);
    shards.resize(static_cast<std::size_t>(cfg.shards));
    for (int s = 0; s < cfg.shards; ++s) {
      Shard& sh = shards[static_cast<std::size_t>(s)];
      sh.accounts = heap.alloc_array<std::uint64_t>(
          static_cast<std::size_t>(cfg.accounts));
      for (int i = 0; i < cfg.accounts; ++i) {
        sh.accounts->set(static_cast<std::size_t>(i), kInitialBalance);
      }
      const std::string name = "shard-" + std::to_string(s);
      if (cfg.revocation) {
        sh.revocable = engine->make_monitor(name);
      } else {
        sh.blocking = std::make_unique<monitor::BlockingMonitor>(name);
      }
    }
  }

  std::uint64_t total() {
    std::uint64_t sum = 0;
    for (Shard& sh : shards) {
      for (std::size_t i = 0; i < sh.accounts->length(); ++i) {
        sum += sh.accounts->get(i);
      }
    }
    return sum;
  }

  monitor::MonitorStats monitor_stats() const {
    monitor::MonitorStats sum;
    for (const Shard& sh : shards) {
      add(sum, sh.revocable != nullptr ? sh.revocable->stats()
                                       : sh.blocking->stats());
    }
    return sum;
  }

  heap::Heap heap;
  std::unique_ptr<core::Engine> engine;  // revocation only
  std::vector<Shard> shards;
};

struct OpenRun {
  RepOut rep;
  std::vector<std::vector<std::uint64_t>> lat;  // per tier, completion order
  std::vector<std::uint64_t> giveups, sheds;
  std::uint64_t span = 0;
  std::uint64_t lag_max = 0;
  std::uint64_t in_flight_max = 0;
  double gen_s = 0.0;
  Counters counters;
  std::vector<std::uint64_t> queue_wait, entry_wait;  // gold, traced only
};

template <class T>
OpenRun run_open(const OpenCfg& cfg, std::uint64_t seed, T& tr,
                 std::vector<Span>* spans) {
  OpenRun out;
  const std::vector<svc::TierSpec> tiers = svc::default_tiers();
  const double t0 = wall_now();
  svc::ArrivalConfig acfg;
  acfg.kind = svc::ArrivalKind::kPoisson;
  acfg.rate = rate_for_rho(cfg.rho);
  acfg.tier_weights.clear();
  for (const svc::TierSpec& t : tiers) acfg.tier_weights.push_back(t.weight);
  const svc::ArrivalSchedule plan = svc::generate(acfg, cfg.window, seed);
  out.gen_s = wall_now() - t0;

  rt::SchedulerConfig scfg;
  scfg.quantum = cfg.quantum;
  scfg.stack_size = cfg.stack_size;
  scfg.strict_priority = true;
  rt::Scheduler sched(scfg);
  Bank bank(sched, cfg);
  const std::uint64_t initial = bank.total();
  const auto accounts = static_cast<std::uint64_t>(cfg.accounts);

  out.lat.assign(tiers.size(), {});
  out.giveups.assign(tiers.size(), 0);
  out.sheds.assign(tiers.size(), 0);
  RepOut& rep = out.rep;
  int in_flight = 0;

  auto request = [&](std::size_t index, const svc::Arrival& a, double t_spawn,
                     std::uint64_t spawn_stamp) {
    Fiber f(sched);
    Span sp;
    sp.id = static_cast<std::uint32_t>(index);
    sp.cls = static_cast<std::uint8_t>(a.tier);
    sp.spawn = spawn_stamp;
    sp.first_run = tr.back(Act::kRequest, f);
    const std::uint64_t first_tick = sched.now();
    const svc::TierSpec& tier = tiers[a.tier];
    SplitMix64 rng(a.seed);
    // The SLO deadline runs from the scheduled arrival (open loop: time
    // spent waiting for the first dispatch already counts against it).
    const std::uint64_t deadline = a.tick + tier.deadline_ticks;
    const std::uint64_t budget =
        deadline > first_tick ? deadline - first_tick : 0;
    Bank::Shard& sh = bank.shards[rng.next_below(bank.shards.size())];
    const std::uint64_t body_seed = rng.next();
    std::uint64_t body_tick = 0;
    auto steps = [&] {
      if constexpr (T::kOn) {
        if (body_tick == 0) body_tick = sched.now() + 1;
      }
      SplitMix64 brng(body_seed);
      for (int i = 0; i < tier.section_ops; ++i) {
        const auto from = static_cast<std::size_t>(brng.next_below(accounts));
        const auto to = static_cast<std::size_t>(brng.next_below(accounts));
        const std::uint64_t have = tr.get(*sh.accounts, from);
        if (have > 0) {
          tr.set(*sh.accounts, from, have - 1);
          tr.set(*sh.accounts, to, tr.get(*sh.accounts, to) + 1);
        }
        tr.yield(f, Act::kBody);
      }
    };
    bool ok = false;
    if (cfg.revocation) {
      sp.call = tr.call(Act::kEnter, f);
      ok = bank.engine->try_synchronized(*sh.revocable, budget, [&] {
        typename T::BodyScope scope(tr, f, &sp);
        steps();
      });
    } else {
      sp.call = tr.call(Act::kMonEnter, f);
      ok = sh.blocking->try_enter(budget);
      if (ok) {
        sp.body_start = tr.call(Act::kBody, f);
        sp.attempts = 1;
        steps();
        sp.body_end = tr.call(Act::kMonRelease, f);
        sh.blocking->release();
      }
    }
    sp.ret = tr.back(Act::kBench, f);
    const std::uint64_t now = sched.now();
    if (ok) {
      sp.latency_ticks = now - a.tick;
      out.lat[a.tier].push_back(sp.latency_ticks);
      if (a.tier == 0) rep.hi_wall_us.push_back((wall_now() - t_spawn) * 1e6);
    } else {
      ++out.giveups[a.tier];
    }
    mix(rep.digest, index);
    mix(rep.digest, ok ? sp.latency_ticks : ~std::uint64_t{0});
    --in_flight;
    if constexpr (T::kOn) {
      if (a.tier == 0) {
        out.queue_wait.push_back(first_tick - a.tick);
        if (ok) out.entry_wait.push_back(body_tick - 1 - first_tick);
      }
      spans->push_back(sp);
    }
    tr.call(Act::kFinish, f);
  };

  // Set-up ends here: spawning costs syscalls (the fiber stack), so it is
  // timed with the run.
  const double t1 = wall_now();
  sched.spawn("injector", rt::kMaxPriority, [&] {
    Fiber f(sched);
    tr.back(Act::kInjector, f);
    for (std::size_t i = 0; i < plan.arrivals.size(); ++i) {
      const svc::Arrival& a = plan.arrivals[i];
      if (a.tick > sched.now()) {
        tr.call(Act::kSleep, f);
        sched.sleep_for(a.tick - sched.now());
        tr.back(Act::kInjector, f);
      }
      out.lag_max = std::max(out.lag_max, sched.now() - a.tick);
      if (in_flight >= cfg.max_in_flight) {
        ++out.sheds[a.tier];
        continue;
      }
      ++in_flight;
      out.in_flight_max =
          std::max(out.in_flight_max, static_cast<std::uint64_t>(in_flight));
      const double t_spawn = a.tier == 0 ? wall_now() : 0.0;
      const std::uint64_t s = tr.call(Act::kSpawn, f);
      sched.spawn(tiers[a.tier].name, tiers[a.tier].priority,
                  [&request, i, a, t_spawn, s] { request(i, a, t_spawn, s); });
      tr.back(Act::kInjector, f);
    }
    tr.call(Act::kFinish, f);
  });
  if constexpr (T::kOn) tr.open();
  sched.run();
  if constexpr (T::kOn) tr.close();
  const double t2 = wall_now();

  rep.setup_s = t1 - t0;
  rep.run_s = t2 - t1;
  rep.offered = plan.arrivals.size();
  std::uint64_t completed = 0;
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    completed += out.lat[t].size();
    rep.failed += out.giveups[t] + out.sheds[t];
  }
  rep.sections = completed;
  rep.hi_ticks = out.lat.front();
  rep.lo_ticks = out.lat.back();
  out.span = sched.now();
  out.counters.sections = completed;
  out.counters.dispatches = sched.dispatches();
  if (bank.engine) out.counters.engine = bank.engine->stats();
  out.counters.monitors = bank.monitor_stats();
  const std::uint64_t rollbacks = out.counters.engine.rollbacks_completed;
  mix(rep.digest, out.span);
  mix(rep.digest, rollbacks);
  for (std::uint64_t s : out.sheds) mix(rep.digest, s);

  if (completed + rep.failed != rep.offered) {
    rep.error = "offered != completed + giveups + sheds";
  }
  if (bank.total() != initial) rep.error = "bank ledger not conserved";
  rep.extra = {{"span_ticks", static_cast<double>(out.span)},
               {"rollbacks", static_cast<double>(rollbacks)},
               {"gen_s", out.gen_s},
               {"in_flight_max", static_cast<double>(out.in_flight_max)},
               {"inject_lag_ticks_max", static_cast<double>(out.lag_max)}};
  return out;
}

class OpenLoop final : public Workload {
 public:
  OpenLoop(bool revocation, bool smoke) {
    cfg_.revocation = revocation;
    cfg_.window = smoke ? 50'000 : 250'000;
  }

  RepOut rep(std::uint64_t seed) override {
    NoTrace nt;
    return run_open(cfg_, seed, nt, nullptr).rep;
  }

  TracedRep traced_rep(std::uint64_t seed) override {
    TracedRep tr;
    const double plain = cfg_.revocation ? calibrate_plain_write_ns() : 0.0;
    Ledger ledger(cfg_.quantum);
    ledger.set_logged_writes(plain);
    const OpenRun r = run_open(cfg_, seed, ledger, &tr.spans);
    tr.rep = r.rep;
    tr.ns_per_stamp = ledger.ns_per_stamp();
    tr.conserved = ledger.conserved();
    for (const svc::TierSpec& t : svc::default_tiers()) {
      tr.class_names.push_back(t.name);
    }
    Metrics& m = tr.metrics;
    layer_metrics({&ledger}, r.counters, plain, m);
    m["rt.queue_wait_ticks_p99"] =
        static_cast<double>(nearest_rank(r.queue_wait, 990));
    m["core.enter_wait_ticks_p99"] =
        static_cast<double>(nearest_rank(r.entry_wait, 990));
    m["svc.gen_s"] = r.gen_s;
    m["svc.in_flight_max"] = static_cast<double>(r.in_flight_max);
    m["svc.inject_lag_ticks_max"] = static_cast<double>(r.lag_max);
    return tr;
  }

  void cross_check(std::uint64_t seed, Checks& checks) override {
    OpenCfg small = cfg_;
    small.window = 40'000;
    NoTrace nt;
    const OpenRun mine = run_open(small, seed, nt, nullptr);
    checks.expect(mine.rep.error.empty(), "open.rep_invariants", mine.rep.error);

    svc::OpenLoopConfig lib;
    lib.arrivals.kind = svc::ArrivalKind::kPoisson;
    lib.arrivals.rate = rate_for_rho(small.rho);
    lib.service.protocol =
        small.revocation ? svc::Protocol::kRevocation : svc::Protocol::kBlocking;
    lib.duration = small.window;
    lib.seed = seed;
    const svc::OpenLoopResult ref = svc::run_open_loop(lib);

    bool match = ref.total_ticks == mine.span &&
                ref.rollbacks == mine.counters.engine.rollbacks_completed &&
                ref.arrivals == mine.rep.offered &&
                ref.recorder.tier_count() == mine.lat.size();
    std::string detail;
    for (std::size_t t = 0; match && t < mine.lat.size(); ++t) {
      Histogram h;
      for (std::uint64_t v : mine.lat[t]) h.record(v);
      const Histogram& rh = ref.recorder.latency(t);
      match = ref.recorder.completed(t) == mine.lat[t].size() &&
             ref.recorder.giveups(t) == mine.giveups[t] &&
             ref.recorder.sheds(t) == mine.sheds[t] &&
             rh.percentile(0.50) == h.percentile(0.50) &&
             rh.percentile(0.99) == h.percentile(0.99) && rh.max() == h.max();
      if (!match) detail = "tier " + ref.recorder.name(t) + " differs";
    }
    if (!match && detail.empty()) detail = "span/rollbacks/arrivals differ";
    checks.expect(match, "open.matches_svc_run_open_loop", detail);
  }

  // capacity_rho: the highest rho on {10, 20, ..., 110} meeting gold p99 <=
  // 250 ticks, failures <= 1% of offered and no growing backlog (span past
  // the window <= 12000 ticks), swept upward until the first miss; 0 when
  // even rho=10 misses.  Each point pools the run's first kSweepSeeds rep
  // seeds.
  void extra_metrics(std::uint64_t seed, Metrics& m) override {
    unsigned capacity = 0;
    for (unsigned rho = 10; rho <= 110; rho += 10) {
      OpenCfg c = cfg_;
      c.rho = rho;
      std::vector<std::uint64_t> gold;
      std::uint64_t failed = 0, offered = 0, backlog = 0;
      for (std::uint64_t k = 0; k < kSweepSeeds; ++k) {
        NoTrace nt;
        const OpenRun r = run_open(c, sub_seed(seed, k), nt, nullptr);
        gold.insert(gold.end(), r.rep.hi_ticks.begin(), r.rep.hi_ticks.end());
        failed += r.rep.failed;
        offered += r.rep.offered;
        backlog = std::max(backlog, r.span - std::min(r.span, c.window));
      }
      const bool meets = nearest_rank(gold, 990) <= 250 &&
                         static_cast<double>(failed) <=
                             0.01 * static_cast<double>(offered) &&
                         backlog <= 12'000;
      if (!meets) break;
      capacity = rho;
    }
    m["svc.capacity_rho"] = capacity;
  }

  // Gold p99 from a 250k-tick window holds ~500 samples; 32 windows pool
  // enough that the tails repeat across run seeds.
  std::uint64_t subseeds() const override { return 32; }

 private:
  OpenCfg cfg_;
};

}  // namespace

std::unique_ptr<Workload> make_open_loop(bool revocation, bool smoke) {
  return std::make_unique<OpenLoop>(revocation, smoke);
}

}  // namespace rvk::bench
