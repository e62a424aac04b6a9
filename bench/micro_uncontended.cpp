// Uncontended-path micro-costs (DESIGN.md §11): what one thread pays to
// enter and exit a synchronized section nobody else wants.
//
//  * SectionHeavy        — RevocableMonitor section with bias OFF: the
//                          pre-§11 path (monitor queue bookkeeping + frame
//                          push + outermost-commit log discard every time)
//  * SectionBiased       — bias ON: repeat acquires by the same thread take
//                          the biased grant and the frame stays lazy, so an
//                          empty section is a handful of scalar stores
//  * SectionBiasedWrite  — bias ON with one logged store per section: the
//                          first write materialises the frame, pricing the
//                          lazy-to-real transition
//
// The *Obs variants rerun the section loops with the observability recorder
// installed.  Recording is NOT free for sections — the engine deliberately
// routes biased entries through the slow path while a recorder is live so
// every section is visible in the trace — and these twins price exactly
// that.  The claim that matters for the fast path is the reverse one: with
// no recorder installed the obs seams cost one predicted branch on a cached
// flag, which is what SectionBiased (obs off) measures.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "obs/recorder.hpp"
#include "rt/scheduler.hpp"

namespace {

using namespace rvk;

core::EngineConfig bias_off_config() {
  core::EngineConfig cfg;
  cfg.bias = false;
  return cfg;
}

void BM_SectionHeavy(benchmark::State& state) {
  rt::Scheduler sched;
  core::Engine eng(sched, bias_off_config());
  core::RevocableMonitor* m = eng.make_monitor("m");
  sched.spawn("bench", rt::kNormPriority, [&] {
    for (auto _ : state) {
      eng.synchronized(*m, [] {});
      benchmark::ClobberMemory();
    }
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SectionHeavy);

void BM_SectionBiased(benchmark::State& state) {
  rt::Scheduler sched;
  core::Engine eng(sched);  // bias on by default
  core::RevocableMonitor* m = eng.make_monitor("m");
  sched.spawn("bench", rt::kNormPriority, [&] {
    eng.synchronized(*m, [] {});  // latch the bias outside the timed loop
    for (auto _ : state) {
      eng.synchronized(*m, [] {});
      benchmark::ClobberMemory();
    }
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SectionBiased);

void BM_ObjectSectionBiased(benchmark::State& state) {
  // The lock-word path (DESIGN.md §13): synchronized on a HeapObject, whose
  // monitor lives behind its header word.  Steady state is the inflated-word
  // slot lookup plus the same biased grant as SectionBiased — this row shows
  // what object-granularity locking adds over a pre-made monitor.
  rt::Scheduler sched;
  core::Engine eng(sched);
  heap::Heap h;
  heap::HeapObject* o = h.alloc("o", 1);
  sched.spawn("bench", rt::kNormPriority, [&] {
    eng.synchronized(o, [] {});  // inflate the lock word + latch the bias
    for (auto _ : state) {
      eng.synchronized(o, [] {});
      benchmark::ClobberMemory();
    }
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObjectSectionBiased);

void BM_SectionBiasedWrite(benchmark::State& state) {
  // One logged store per section: entry is still the biased grant, but the
  // store materialises the frame and the commit discards one log entry.
  rt::Scheduler sched;
  core::Engine eng(sched);
  heap::Heap h;
  heap::HeapObject* o = h.alloc("o", 1);
  core::RevocableMonitor* m = eng.make_monitor("m");
  sched.spawn("bench", rt::kNormPriority, [&] {
    eng.synchronized(*m, [] {});
    std::uint64_t v = 0;
    for (auto _ : state) {
      eng.synchronized(*m, [&] { o->set_word(0, ++v); });
      benchmark::ClobberMemory();
    }
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SectionBiasedWrite);

void BM_SectionHeavyObs(benchmark::State& state) {
  const bool owned = obs::Recorder::active() == nullptr;
  if (owned) obs::Recorder::install();
  rt::Scheduler sched;
  core::Engine eng(sched, bias_off_config());
  core::RevocableMonitor* m = eng.make_monitor("m");
  sched.spawn("bench", rt::kNormPriority, [&] {
    for (auto _ : state) {
      eng.synchronized(*m, [] {});
      benchmark::ClobberMemory();
    }
  });
  sched.run();
  if (owned) obs::Recorder::uninstall();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SectionHeavyObs);

void BM_SectionBiasedObs(benchmark::State& state) {
  // With a recorder live the engine takes the recorded slow path even for
  // biased acquires (the bias word still grants there); the delta vs
  // BM_SectionBiased is the full price of observing every section event.
  const bool owned = obs::Recorder::active() == nullptr;
  if (owned) obs::Recorder::install();
  rt::Scheduler sched;
  core::Engine eng(sched);
  core::RevocableMonitor* m = eng.make_monitor("m");
  sched.spawn("bench", rt::kNormPriority, [&] {
    eng.synchronized(*m, [] {});
    for (auto _ : state) {
      eng.synchronized(*m, [] {});
      benchmark::ClobberMemory();
    }
  });
  sched.run();
  if (owned) obs::Recorder::uninstall();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SectionBiasedObs);

// Hand-rolled acceptance ratio (printed in the footer): ns per empty
// uncontended section with bias on vs off, same engine config either side.
double time_empty_sections(bool bias) {
  core::EngineConfig cfg;
  cfg.bias = bias;
  rt::Scheduler sched;
  core::Engine eng(sched, cfg);
  core::RevocableMonitor* m = eng.make_monitor("m");
  constexpr int kWarmup = 10000;
  constexpr int kReps = 400000;
  double ns = 0.0;
  sched.spawn("ratio", rt::kNormPriority, [&] {
    for (int i = 0; i < kWarmup; ++i) eng.synchronized(*m, [] {});
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) eng.synchronized(*m, [] {});
    const auto t1 = std::chrono::steady_clock::now();
    ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / kReps;
  });
  sched.run();
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  const double heavy_ns = time_empty_sections(false);
  const double biased_ns = time_empty_sections(true);
  std::printf(
      "\nuncontended_section_ns{bias=off}: %.1f\n"
      "uncontended_section_ns{bias=on}:  %.1f\n"
      "bias_speedup: %.2fx\n",
      heavy_ns, biased_ns, heavy_ns / biased_ns);
  std::printf(
      "\nExpected shape: SectionBiased is the floor (biased grant + lazy\n"
      "frame: no queue bookkeeping, no log discard) and beats SectionHeavy\n"
      "by >= 2x — bias_speedup above is the acceptance ratio.\n"
      "ObjectSectionBiased rides the same biased grant behind the object's\n"
      "lock word, paying one extra table lookup to resolve the word.\n"
      "SectionBiasedWrite adds the one-time frame materialisation plus a\n"
      "log append.  The *Obs twins are deliberately slower: a live recorder\n"
      "routes sections down the recorded slow path; with no recorder\n"
      "installed the obs seams cost one predicted branch, which is already\n"
      "included in the obs-off numbers.\n");
  return 0;
}
