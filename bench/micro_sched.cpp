// Scheduler dispatch micro-costs (DESIGN.md §8).
//
// The paper's argument prices revocation against the inversion it cures, so
// dispatch — paid at every yield point — must cost O(1), not O(runnable
// threads).  These benchmarks pin that down four ways:
//
//  * BM_BitmapQueue_PushPop: one pop_best + push on the priority-bucketed
//    bitmap queue at growing resident sizes (flat).
//  * BM_SchedulerDispatch: end-to-end yield->switch->dispatch round trips
//    through the real scheduler at growing runnable-thread counts (flat).
//  * BM_DispatchWithSleepers: dispatch cost while many threads sit on the
//    deadline heap — the old per-tick O(sleepers) sweep is now one
//    heap-top compare (flat).
//  * BM_SchedulerDispatchObs: the same round trip with the observability
//    recorder installed — each rotation additionally pays two event-ring
//    writes (dispatch + switch-out).  A small constant add, still flat in
//    the thread count; BM_SchedulerDispatch is the obs-off baseline and
//    must not move when the recorder is merely linked in (null-checked
//    pointer, never taken).
//
// CI gates these as same-run ratios, each read at its fastest of five
// repetitions (results/bench_baseline.json, tools/bench_compare.py): the
// /1024 ÷ /16 flatness of the queue and of dispatch, and observed ÷ plain
// dispatch at /1024.  A ratio cancels the host's speed, which an absolute
// nanosecond figure from another machine cannot.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "rt/scheduler.hpp"

namespace {

using namespace rvk;

// Detached queue payloads: control blocks never spawned, never run
// (spawning would link them into the scheduler's ready queue).
struct Payload {
  explicit Payload(std::size_t n) {
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.push_back(std::make_unique<rt::VThread>(&sched));
      threads.back()->set_priority(static_cast<int>(i % 10) + 1);
    }
  }
  rt::Scheduler sched;
  std::vector<std::unique_ptr<rt::VThread>> threads;
};

void BM_BitmapQueue_PushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Payload p(n);
  rt::WaitQueue q;
  for (auto& t : p.threads) q.push(t.get());
  for (auto _ : state) {
    rt::VThread* t = q.pop_best();
    benchmark::DoNotOptimize(t);
    q.push(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("resident threads: " + std::to_string(n) + " (flat)");
}
BENCHMARK(BM_BitmapQueue_PushPop)->Arg(16)->Arg(256)->Arg(1024)->Arg(4096);

// Full yield-point -> switch-out -> pick-next -> dispatch round trip with N
// runnable threads, quantum 1 so every yield rotates the processor.
void BM_SchedulerDispatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kYieldsPerThread = 64;
  for (auto _ : state) {
    state.PauseTiming();
    rt::SchedulerConfig cfg;
    cfg.quantum = 1;
    cfg.stack_size = 16 * 1024;
    rt::Scheduler sched(cfg);
    for (int i = 0; i < n; ++i) {
      sched.spawn(std::string("t").append(std::to_string(i)),
                  rt::kNormPriority, [&sched] {
        for (int k = 0; k < kYieldsPerThread; ++k) sched.yield_point();
      });
    }
    state.ResumeTiming();
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          kYieldsPerThread);
  state.SetLabel("runnable threads: " + std::to_string(n) +
                 " (ns/item = one dispatch; flat)");
}
BENCHMARK(BM_SchedulerDispatch)->Arg(16)->Arg(256)->Arg(1024);

// BM_SchedulerDispatch with the obs recorder installed: prices the per-
// dispatch instrumentation (one ring write on dispatch, one on switch-out;
// spawn registers the ring once per thread, outside the timed loop's
// steady state).
void BM_SchedulerDispatchObs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kYieldsPerThread = 64;
  const bool owned = obs::Recorder::active() == nullptr;
  if (owned) obs::Recorder::install();
  for (auto _ : state) {
    state.PauseTiming();
    rt::SchedulerConfig cfg;
    cfg.quantum = 1;
    cfg.stack_size = 16 * 1024;
    rt::Scheduler sched(cfg);
    // Fresh scheduler ⇒ restart thread ids and the recorder's rings, as the
    // harness does per repetition.
    obs::on_run_begin();
    for (int i = 0; i < n; ++i) {
      sched.spawn(std::string("t").append(std::to_string(i)),
                  rt::kNormPriority, [&sched] {
        for (int k = 0; k < kYieldsPerThread; ++k) sched.yield_point();
      });
    }
    state.ResumeTiming();
    sched.run();
  }
  if (owned) obs::Recorder::uninstall();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          kYieldsPerThread);
  state.SetLabel("runnable threads: " + std::to_string(n) +
                 " (obs on: +2 ring writes/dispatch; flat)");
}
BENCHMARK(BM_SchedulerDispatchObs)->Arg(16)->Arg(256)->Arg(1024);

// One worker spinning through yield points while N threads hold armed
// deadlines on the timer heap.  The virtual-clock tick must not pay
// O(sleepers).  Manual timing brackets only the worker's yield phase: the
// final drain (waking and finishing N sleepers once the worker exits) is
// real but is not the steady-state cost this benchmark isolates.
void BM_DispatchWithSleepers(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kYields = 4096;
  for (auto _ : state) {
    rt::SchedulerConfig cfg;
    cfg.quantum = 1;
    cfg.stack_size = 16 * 1024;
    rt::Scheduler sched(cfg);
    for (int i = 0; i < n; ++i) {
      sched.spawn("sleeper" + std::to_string(i), rt::kNormPriority,
                  [&sched] { sched.sleep_for(1u << 30); });
    }
    double seconds = 0;
    sched.spawn("worker", rt::kNormPriority, [&sched, &seconds] {
      const auto t0 = std::chrono::steady_clock::now();
      for (int k = 0; k < kYields; ++k) sched.yield_point();
      seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    });
    sched.run();
    state.SetIterationTime(seconds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kYields);
  state.SetLabel("armed timers: " + std::to_string(n) + " (flat)");
}
BENCHMARK(BM_DispatchWithSleepers)->Arg(0)->Arg(256)->Arg(4096)->UseManualTime();

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  std::printf(
      "\nExpected shape: the bitmap queue stays flat as resident threads\n"
      "grow; BM_SchedulerDispatch and BM_DispatchWithSleepers stay flat as\n"
      "threads/timers grow (per item: a /1024 dispatch iteration runs 64x\n"
      "the items of a /16 one); BM_SchedulerDispatchObs stays flat too, a\n"
      "constant above BM_SchedulerDispatch (two timestamped event-ring\n"
      "writes per rotation).\n");
  return 0;
}
