// paper_writes: the paper's §4.1 micro-benchmark at paper scale on the
// modified (revocation) VM with 60% writes — 2 high- and 8 low-priority
// threads contending on one monitor.  The thread body restates
// harness::run_workload so the benchmark can stamp the layer boundaries;
// cross_check() holds it to the library's exact tick results.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "harness/workload.hpp"
#include "heap/heap.hpp"
#include "workload.hpp"

namespace rvk::bench {
namespace {

struct PaperCfg {
  int high_threads = 2;
  int low_threads = 8;
  int high_priority = 8;
  int low_priority = 2;
  // Paper-scale sections (iterations, quantum, pause), but 10 per thread
  // rather than 100, so a run holds many ~0.5 s reps.
  int sections = 10;
  std::uint64_t high_iters = 100'000;
  std::uint64_t low_iters = 500'000;
  unsigned write_percent = 60;
  std::size_t array_len = 64;
  // The paper's timing regime (harness/env.cpp): the quantum spans one
  // low-priority section and the mean pre-entry pause is 1.5 quanta.
  std::uint64_t avg_pause = 750'000;
  int quantum = 500'000;
};

struct PaperRun {
  RepOut rep;
  std::uint64_t high_elapsed_ticks = 0;
  std::uint64_t overall_elapsed_ticks = 0;
  double high_elapsed_s = 0.0;
  std::uint64_t checksum = 0;
  Counters counters;
  std::vector<std::uint64_t> queue_wait, entry_wait;  // high, traced only
};

template <class T>
PaperRun run_paper(const PaperCfg& p, std::uint64_t seed, T& tr,
                   std::vector<Span>* spans) {
  PaperRun out;
  RepOut& rep = out.rep;
  const double t0 = wall_now();
  rt::SchedulerConfig scfg;
  scfg.quantum = p.quantum;
  rt::Scheduler sched(scfg);
  core::Engine engine(sched);
  core::RevocableMonitor* mon = engine.make_monitor("shared");
  heap::Heap h;
  heap::HeapArray<std::uint64_t>* arr =
      h.alloc_array<std::uint64_t>(p.array_len);

  struct Times {
    double wall_start = 0, wall_end = 0;
    std::uint64_t tick_start = 0, tick_end = 0;
  };
  const int n = p.high_threads + p.low_threads;
  std::vector<Times> times(static_cast<std::size_t>(n));

  // Inputs: each thread's pre-entry pauses and section seeds, drawn from its
  // own stream in the order harness::run_workload draws them.
  struct Draw {
    std::uint64_t pause, section_seed;
  };
  std::vector<std::vector<Draw>> inputs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    SplitMix64 rng(seed ^ (0x9E3779B97F4A7C15ULL *
                           static_cast<std::uint64_t>(i + 1)));
    for (int s = 0; s < p.sections; ++s) {
      const std::uint64_t pause = rng.next_below(2 * p.avg_pause + 1);
      inputs[static_cast<std::size_t>(i)].push_back({pause, rng.next()});
    }
  }

  auto thread_body = [&](int index, bool high) {
    Fiber f(sched);
    tr.back(Act::kRequest, f);
    const std::vector<Draw>& draws = inputs[static_cast<std::size_t>(index)];
    Times& tm = times[static_cast<std::size_t>(index)];
    tm.wall_start = wall_now();
    tm.tick_start = sched.now();
    const std::uint64_t iters = high ? p.high_iters : p.low_iters;
    for (int s = 0; s < p.sections; ++s) {
      const std::uint64_t pause = draws[static_cast<std::size_t>(s)].pause;
      const std::uint64_t due = sched.now() + pause;
      tr.call(Act::kSleep, f);
      sched.sleep_for(pause);
      tr.back(Act::kRequest, f);

      // Fixed outside the section, so a revoked section re-executes the
      // same operation sequence.
      const std::uint64_t section_seed =
          draws[static_cast<std::size_t>(s)].section_seed;
      std::uint64_t acc = 0;
      Span sp;
      sp.id = static_cast<std::uint32_t>(index * p.sections + s);
      sp.cls = high ? 0 : 1;
      const std::uint64_t call_tick = sched.now();
      const double call_wall = high ? wall_now() : 0.0;
      std::uint64_t body_tick = 0;
      sp.spawn = sp.first_run = sp.call = tr.call(Act::kEnter, f);
      engine.synchronized(*mon, [&] {
        typename T::BodyScope scope(tr, f, &sp);
        if constexpr (T::kOn) {
          if (body_tick == 0) body_tick = sched.now() + 1;
        }
        acc = 0;
        SplitMix64 srng(section_seed);
        unsigned wacc = 50;
        for (std::uint64_t i = 0; i < iters; ++i) {
          const auto idx = static_cast<std::size_t>(srng.next_below(p.array_len));
          acc = (acc ^ (acc >> 17)) * 0x9E3779B97F4A7C15ULL + i;
          acc ^= acc >> 29;
          wacc += p.write_percent;
          if (wacc >= 100) {
            wacc -= 100;
            tr.set(*arr, idx, acc);
          } else {
            acc += tr.get(*arr, idx);
          }
          tr.yield(f, Act::kBody);
        }
      });
      sp.ret = tr.back(Act::kBench, f);
      sp.latency_ticks = sched.now() - call_tick;
      (high ? rep.hi_ticks : rep.lo_ticks).push_back(sp.latency_ticks);
      if (high) rep.hi_wall_us.push_back((wall_now() - call_wall) * 1e6);
      mix(rep.digest, sp.id);
      mix(rep.digest, sp.latency_ticks);
      out.checksum += acc;
      ++rep.sections;
      if constexpr (T::kOn) {
        if (high) {
          out.queue_wait.push_back(call_tick - due);
          out.entry_wait.push_back(body_tick - 1 - call_tick);
        }
        spans->push_back(sp);
      }
    }
    tm.wall_end = wall_now();
    tm.tick_end = sched.now();
    tr.call(Act::kFinish, f);
  };

  // Set-up ends here: spawning costs syscalls (fiber stacks), so it is
  // timed with the run.  High-priority threads first, as
  // harness::run_workload spawns them.
  const double t1 = wall_now();
  for (int i = 0; i < n; ++i) {
    const bool high = i < p.high_threads;
    sched.spawn((high ? "high-" : "low-") + std::to_string(i),
                high ? p.high_priority : p.low_priority,
                [&thread_body, i, high] { thread_body(i, high); });
  }
  if constexpr (T::kOn) tr.open();
  sched.run();
  if constexpr (T::kOn) tr.close();
  const double t2 = wall_now();

  rep.setup_s = t1 - t0;
  rep.run_s = t2 - t1;
  rep.offered = static_cast<std::uint64_t>(n) *
                static_cast<std::uint64_t>(p.sections);
  std::uint64_t hi0 = UINT64_MAX, hi1 = 0, all0 = UINT64_MAX, all1 = 0;
  double hw0 = 1e300, hw1 = 0.0;
  for (int i = 0; i < n; ++i) {
    const Times& tm = times[static_cast<std::size_t>(i)];
    all0 = std::min(all0, tm.tick_start);
    all1 = std::max(all1, tm.tick_end);
    if (i < p.high_threads) {
      hi0 = std::min(hi0, tm.tick_start);
      hi1 = std::max(hi1, tm.tick_end);
      hw0 = std::min(hw0, tm.wall_start);
      hw1 = std::max(hw1, tm.wall_end);
    }
  }
  out.high_elapsed_ticks = hi1 - hi0;
  out.overall_elapsed_ticks = all1 - all0;
  out.high_elapsed_s = hw1 - hw0;
  out.counters.sections = rep.sections;
  out.counters.dispatches = sched.dispatches();
  out.counters.engine = engine.stats();
  out.counters.monitors = mon->stats();
  const core::EngineStats& es = out.counters.engine;
  mix(rep.digest, out.checksum);
  mix(rep.digest, out.high_elapsed_ticks);
  mix(rep.digest, out.overall_elapsed_ticks);
  mix(rep.digest, es.rollbacks_completed);
  mix(rep.digest, es.words_undone);
  if (rep.sections != rep.offered) rep.error = "paper_writes lost sections";
  rep.extra = {
      {"high_elapsed_ticks", static_cast<double>(out.high_elapsed_ticks)},
      {"overall_elapsed_ticks", static_cast<double>(out.overall_elapsed_ticks)},
      {"high_elapsed_s", out.high_elapsed_s},
      {"rollbacks", static_cast<double>(es.rollbacks_completed)}};
  return out;
}

class PaperWrites final : public Workload {
 public:
  explicit PaperWrites(bool smoke) {
    if (smoke) {
      cfg_.sections = 4;
      cfg_.high_iters = 10'000;
      cfg_.low_iters = 50'000;
      cfg_.quantum = 50'000;
      cfg_.avg_pause = 75'000;
    }
  }

  std::uint64_t subseeds() const override { return 8; }

  RepOut rep(std::uint64_t seed) override {
    NoTrace nt;
    return run_paper(cfg_, seed, nt, nullptr).rep;
  }

  TracedRep traced_rep(std::uint64_t seed) override {
    TracedRep tr;
    const double plain = calibrate_plain_write_ns();
    Ledger ledger(cfg_.quantum);
    ledger.set_logged_writes(plain);
    const PaperRun r = run_paper(cfg_, seed, ledger, &tr.spans);
    tr.rep = r.rep;
    tr.ns_per_stamp = ledger.ns_per_stamp();
    tr.conserved = ledger.conserved();
    tr.class_names = {"high", "low"};
    Metrics& m = tr.metrics;
    layer_metrics({&ledger}, r.counters, plain, m);
    m["rt.queue_wait_ticks_p99"] =
        static_cast<double>(nearest_rank(r.queue_wait, 990));
    m["core.enter_wait_ticks_p99"] =
        static_cast<double>(nearest_rank(r.entry_wait, 990));
    return tr;
  }

  void cross_check(std::uint64_t seed, Checks& checks) override {
    PaperCfg small = cfg_;
    small.sections = 4;
    small.high_iters = 400;
    small.low_iters = 2'000;
    small.quantum = 2'000;
    small.avg_pause = 3'000;
    NoTrace nt;
    const PaperRun mine = run_paper(small, seed, nt, nullptr);
    checks.expect(mine.rep.error.empty(), "paper.rep_invariants",
                  mine.rep.error);

    harness::WorkloadParams lib;
    lib.high_threads = small.high_threads;
    lib.low_threads = small.low_threads;
    lib.high_priority = small.high_priority;
    lib.low_priority = small.low_priority;
    lib.sections_per_thread = small.sections;
    lib.high_iters = small.high_iters;
    lib.low_iters = small.low_iters;
    lib.write_percent = small.write_percent;
    lib.array_len = small.array_len;
    lib.avg_pause_ticks = small.avg_pause;
    lib.scheduler_quantum = small.quantum;
    lib.seed = seed;
    const harness::WorkloadResult ref =
        harness::run_workload(harness::VmKind::kModified, lib);
    const bool match = ref.high_elapsed_ticks == mine.high_elapsed_ticks &&
                      ref.overall_elapsed_ticks == mine.overall_elapsed_ticks &&
                      ref.checksum == mine.checksum &&
                      ref.sections_executed == mine.rep.sections &&
                      same(ref.engine, mine.counters.engine);
    checks.expect(match, "paper.matches_harness_run_workload",
                  match ? "" : "elapsed ticks, checksum or EngineStats differ");
  }

 private:
  PaperCfg cfg_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_writes(bool smoke) {
  return std::make_unique<PaperWrites>(smoke);
}

}  // namespace rvk::bench
