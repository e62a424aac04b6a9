// Monitor and synchronized-section micro-costs: uncontended acquire/release
// for the blocking baseline vs the full revocable section machinery (frame
// push, watermark, commit), plus context-switch and revocation round-trips.
#include <benchmark/benchmark.h>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "monitor/monitor.hpp"
#include "rt/scheduler.hpp"

namespace {

using namespace rvk;

void BM_BlockingMonitorUncontended(benchmark::State& state) {
  rt::Scheduler sched;
  monitor::BlockingMonitor m("m");
  sched.spawn("bench", rt::kNormPriority, [&] {
    for (auto _ : state) {
      m.acquire();
      m.release();
    }
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BlockingMonitorUncontended);

void BM_RevocableSectionEmpty(benchmark::State& state) {
  rt::Scheduler sched;
  core::Engine eng(sched);
  core::RevocableMonitor* m = eng.make_monitor("m");
  sched.spawn("bench", rt::kNormPriority, [&] {
    for (auto _ : state) {
      eng.synchronized(*m, [] {});
    }
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RevocableSectionEmpty);

void BM_RevocableSectionRecursive(benchmark::State& state) {
  rt::Scheduler sched;
  core::Engine eng(sched);
  core::RevocableMonitor* m = eng.make_monitor("m");
  sched.spawn("bench", rt::kNormPriority, [&] {
    eng.synchronized(*m, [&] {
      for (auto _ : state) {
        eng.synchronized(*m, [] {});  // recursive frame
      }
    });
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RevocableSectionRecursive);

void BM_ContextSwitchPingPong(benchmark::State& state) {
  // Quantum 1: every yield point rotates the processor, so each iteration
  // measured in thread `a` pays a full a→scheduler→b→scheduler→a round trip
  // (two context switches plus scheduler dispatch).
  rt::SchedulerConfig cfg;
  cfg.quantum = 1;
  rt::Scheduler sched(cfg);
  sched.spawn("a", rt::kNormPriority, [&] {
    for (auto _ : state) {
      sched.yield_point();
    }
  });
  sched.spawn("b", rt::kNormPriority, [&] {
    while (sched.live_count() > 1) sched.yield_point();
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ContextSwitchPingPong);

void BM_RevocationRoundTrip(benchmark::State& state) {
  // Full revocation scenario per iteration: lo enters and writes, hi
  // preempts, lo rolls back `writes` logged words and re-executes.
  const int writes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    rt::Scheduler sched;
    core::Engine eng(sched);
    heap::Heap h;
    heap::HeapArray<std::uint64_t>* arr = h.alloc_array<std::uint64_t>(64);
    core::RevocableMonitor* m = eng.make_monitor("m");
    sched.spawn("lo", 2, [&] {
      int runs = 0;
      eng.synchronized(*m, [&] {
        ++runs;
        for (int i = 0; i < writes; ++i) {
          arr->set(static_cast<std::size_t>(i) & 63,
                   static_cast<std::uint64_t>(i));
          if (runs == 1) sched.yield_point();
        }
        if (runs == 1) {
          for (int i = 0; i < 500; ++i) sched.yield_point();
        }
      });
    });
    sched.spawn("hi", 8, [&] {
      sched.sleep_for(static_cast<std::uint64_t>(writes) / 2 + 10);
      eng.synchronized(*m, [] {});
    });
    sched.run();
  }
  state.SetLabel(std::to_string(writes) + " logged words per rollback; " +
                 "includes VM setup per iteration");
}
BENCHMARK(BM_RevocationRoundTrip)->Arg(16)->Arg(256)->Arg(4096)
    ->Unit(benchmark::kMicrosecond)->Iterations(200);

}  // namespace

BENCHMARK_MAIN();
