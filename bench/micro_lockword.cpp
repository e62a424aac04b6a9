// Monitor storage at object scale (DESIGN.md §13): what a compact lock
// word costs in time along its free→inflated→free cycle, and what it saves
// in space when most objects are never synchronized on.
//
//  * LockWordInflateRelease  — the full cycle every iteration: inflate a
//                              free word into a RevocableMonitor slot, then
//                              release the slot as a dying object's
//                              ~ObjectMeta does.  Prices the fat-monitor
//                              materialise/destroy pair that monitor_of and
//                              object teardown pay once per object lifetime
//  * ObjectSyncBiased        — engine section on a HeapObject: monitor_of
//                              resolves the object's lock word, then the
//                              biased grant + lazy frame take over.  The
//                              object carries no monitor until first sync
//  * LockWordBytesPerObject  — the space claim.  N lock words, every
//                              kContendedStride-th inflated to a live
//                              RevocableMonitor; reported "time" is bytes
//                              of monitor state per object (manual-time
//                              encoding, 1 ns == 1 byte) so bench_compare
//                              can gate the memory ratio like any other
//                              series
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/revocable_monitor.hpp"
#include "heap/heap.hpp"
#include "monitor/lock_word.hpp"
#include "monitor/monitor_table.hpp"
#include "rt/scheduler.hpp"

namespace {

using namespace rvk;

// One fat monitor in 1024 objects: a deliberately contention-heavy stand-in
// for "steady state, a handful of monitors are inflated at once" (fig5-8
// run single-digit inflated monitors against thousands of objects).
constexpr std::uint32_t kContendedStride = 1024;

// Builds the engine's RevocableMonitors, as Engine::monitor_of does.
monitor::MonitorTable::Factory revocable_factory(core::Engine& eng) {
  return [&eng](std::string name) -> std::unique_ptr<monitor::MonitorBase> {
    return std::make_unique<core::RevocableMonitor>(std::move(name), eng);
  };
}

void BM_LockWordInflateRelease(benchmark::State& state) {
  rt::Scheduler sched;
  core::Engine eng(sched);  // the owner tag the cycled slot carries
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  const monitor::MonitorTable::Factory factory = revocable_factory(eng);
  monitor::LockWord word;
  for (auto _ : state) {
    monitor::MonitorBase* m =
        &table.inflate(word, "lw-cycle", factory, /*owner_tag=*/&eng);
    benchmark::DoNotOptimize(m);
    table.release_slot(word);  // quiescent -> destroyed immediately
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LockWordInflateRelease);

void BM_ObjectSyncBiased(benchmark::State& state) {
  rt::Scheduler sched;
  core::Engine eng(sched);
  heap::Heap h;
  heap::HeapObject* o = h.alloc("o", 1);
  sched.spawn("bench", rt::kNormPriority, [&] {
    eng.synchronized(o, [] {});  // inflate the word + latch the bias
    for (auto _ : state) {
      eng.synchronized(o, [] {});
      benchmark::ClobberMemory();
    }
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObjectSyncBiased);

void BM_LockWordBytesPerObject(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rt::Scheduler sched;
  core::Engine eng(sched);  // the RevocableMonitors' engine
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  const monitor::MonitorTable::Factory factory = revocable_factory(eng);

  double bytes_per_object = 0.0;
  std::size_t inflated = 0;
  for (auto _ : state) {
    // The object population is modelled by its lock words: ObjectMeta
    // embeds exactly one LockWord, which is the entire per-object monitor
    // footprint this PR adds.
    std::vector<monitor::LockWord> words(n);
    const std::size_t slot_bytes_before = table.slot_bytes();
    inflated = 0;
    for (std::size_t i = 0; i < n; i += kContendedStride) {
      table.inflate(words[i], "lw-bytes", factory);
      ++inflated;
    }
    const std::size_t monitor_bytes =
        inflated * sizeof(core::RevocableMonitor) +
        (table.slot_bytes() - slot_bytes_before);
    bytes_per_object =
        (static_cast<double>(n) * sizeof(monitor::LockWord) +
         static_cast<double>(monitor_bytes)) /
        static_cast<double>(n);
    // Manual-time encoding: 1 reported ns == 1 byte of monitor state per
    // object, so the JSON real_time is the gated quantity itself.
    state.SetIterationTime(bytes_per_object * 1e-9);
    for (std::size_t i = 0; i < n; i += kContendedStride) {
      table.release_slot(words[i]);  // quiescent -> destroyed immediately
    }
  }
  const double fat_bytes = static_cast<double>(sizeof(core::RevocableMonitor));
  state.counters["bytes_per_object"] = bytes_per_object;
  state.counters["fat_bytes_per_object"] = fat_bytes;
  state.counters["memory_ratio"] = fat_bytes / bytes_per_object;
  state.counters["inflated_monitors"] = static_cast<double>(inflated);
}
BENCHMARK(BM_LockWordBytesPerObject)
    ->Arg(1 << 10)
    ->Arg(1 << 15)
    ->Arg(1 << 20)
    ->UseManualTime()
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  std::printf(
      "\nExpected shape: ObjectSyncBiased is the steady-state price of\n"
      "synchronized(obj) (tens of ns: one table lookup resolves the\n"
      "inflated word, then the biased engine grant).  LockWordInflateRelease\n"
      "pays a RevocableMonitor allocation + destruction every iteration and\n"
      "sits several times above it — the pair monitor_of and a dying\n"
      "object pay once per object lifetime, not per section.\n"
      "LockWordBytesPerObject's real_time encodes bytes of monitor state\n"
      "per object (1 ns == 1 byte): with 1 in %u objects inflated it\n"
      "settles near sizeof(LockWord) == %zu bytes, so memory_ratio vs one\n"
      "fat monitor per object (%zu bytes) clears 100x at every N in the\n"
      "sweep, including 1M objects.\n",
      kContendedStride, sizeof(monitor::LockWord),
      sizeof(core::RevocableMonitor));
  return 0;
}
