// Barrier micro-costs (§1.1's "fast-path test on every non-local update"):
//  * write fast path  — store outside any synchronized section
//  * write slow path  — store inside a section (fast-path test, write-filter
//                       miss, log append); the Repeat variant times a
//                       filter hit (no append)
//  * unlogged store   — the barrier the compiler would have elided
//  * read fast path   — clean object, one mark test
// These are the per-operation overheads the paper's modified VM charges on
// all threads; Figures 5–8's "influence of different read-write ratios … is
// small" claim rests on them being a few nanoseconds.
//
// The *Analyzed variants rerun the same loops with the revocation-safety
// analyzer on (EngineConfig::analyze).  Their deltas price the checker:
// the engine forwarding each traced access, lockset + bypass lint per
// access, one extra field test per yield point.  The plain variants are the
// analyzer-off regression baseline — they must not move when the analyzer
// code is linked in, because with no engine subscriber the access gate is
// one relaxed load of a zero count.
//
// The *Obs variants rerun the write slow path and the yield point with the
// observability recorder installed (src/obs/).  Neither path carries an obs
// hook — the recorder pays only at dispatch/switch, monitor, engine, and
// undo-log lifecycle events — so these must match their obs-off twins
// within noise; they exist to catch a hook creeping onto the per-operation
// fast paths.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "log/write_filter.hpp"
#include "obs/recorder.hpp"
#include "rt/scheduler.hpp"

namespace {

using namespace rvk;

// Runs `body` on a green thread inside a fresh scheduler (barriers consult
// the current VThread).
template <typename F>
void on_green_thread(F&& body) {
  rt::Scheduler sched;
  sched.spawn("bench", rt::kNormPriority, [&] { body(sched); });
  sched.run();
}

void BM_WriteOutsideSection(benchmark::State& state) {
  on_green_thread([&](rt::Scheduler&) {
    heap::Heap h;
    heap::HeapObject* o = h.alloc("o", 1);
    std::uint64_t v = 0;
    for (auto _ : state) {
      o->set_word(0, ++v);
      benchmark::ClobberMemory();
    }
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WriteOutsideSection);

// Stores inside one section, to `words` slots of one object in turn.  More
// than log::WriteFilter::kSlots slots keeps every store a filter miss —
// store plus log append — and keeps the log-bounding rollback honest: the
// next store to a slot always finds its filter entry evicted, so the filter
// never vouches for a truncated entry.  One slot times the filter hit.
void write_inside_section(benchmark::State& state, core::EngineConfig cfg,
                          std::size_t words) {
  rt::Scheduler sched;
  core::Engine eng(sched, cfg);
  heap::Heap h;
  heap::HeapObject* o = h.alloc("o", words);
  core::RevocableMonitor* m = eng.make_monitor("m");
  sched.spawn("bench", rt::kNormPriority, [&] {
    eng.synchronized(*m, [&] {
      rt::VThread* t = sched.current_thread();
      std::uint64_t v = 0;
      std::size_t i = 0;
      for (auto _ : state) {
        o->set_word(i, ++v);
        if (++i == words) i = 0;
        if (t->undo_log.size() >= (1u << 18)) {
          // keep the log bounded; truncation cost is amortized away
          t->undo_log.rollback_to(0);
        }
        benchmark::ClobberMemory();
      }
      t->undo_log.rollback_to(0);
    });
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

constexpr std::size_t kMissWords = 2 * log::WriteFilter::kSlots;

void BM_WriteInsideSection(benchmark::State& state) {
  write_inside_section(state, {}, kMissWords);
}
BENCHMARK(BM_WriteInsideSection);

void BM_WriteInsideSectionRepeat(benchmark::State& state) {
  // Every store after the first hits the write filter: no append.
  write_inside_section(state, {}, 1);
}
BENCHMARK(BM_WriteInsideSectionRepeat);

void BM_WriteInsideSectionObs(benchmark::State& state) {
  // Write slow path with the obs recorder live.  The store/log-append loop
  // has no obs hook (the only obs event this loop ever causes is one
  // undo-replay record per 2^18 stores, from the log-bounding rollback), so
  // the delta vs BM_WriteInsideSection must be noise.
  const bool owned = obs::Recorder::active() == nullptr;
  if (owned) obs::Recorder::install();
  write_inside_section(state, {}, kMissWords);
  if (owned) obs::Recorder::uninstall();
}
BENCHMARK(BM_WriteInsideSectionObs);

void BM_WriteUnlogged(benchmark::State& state) {
  heap::Heap h;
  heap::HeapObject* o = h.alloc("o", 1);
  std::uint64_t v = 0;
  for (auto _ : state) {
    o->set_word_unlogged(0, ++v);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WriteUnlogged);

void BM_ReadCleanObject(benchmark::State& state) {
  heap::Heap h;
  heap::HeapObject* o = h.alloc("o", 1);
  o->set_word_unlogged(0, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(o->get_word(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReadCleanObject);

void BM_ReadOwnSpeculation(benchmark::State& state) {
  // Reader == writer: the tracked-read hook runs but pins nothing.
  rt::Scheduler sched;
  core::Engine eng(sched);
  heap::Heap h;
  heap::HeapObject* o = h.alloc("o", 1);
  core::RevocableMonitor* m = eng.make_monitor("m");
  sched.spawn("bench", rt::kNormPriority, [&] {
    eng.synchronized(*m, [&] {
      o->set_word(0, 7);  // marks the object
      for (auto _ : state) {
        benchmark::DoNotOptimize(o->get_word(0));
      }
      sched.current_thread()->undo_log.rollback_to(0);
    });
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReadOwnSpeculation);

void BM_YieldPointNoSwitch(benchmark::State& state) {
  rt::SchedulerConfig cfg;
  cfg.quantum = 1 << 30;  // never expires: pure yield-point cost
  rt::Scheduler sched(cfg);
  sched.spawn("bench", rt::kNormPriority, [&] {
    for (auto _ : state) {
      sched.yield_point();
    }
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_YieldPointNoSwitch);

void BM_YieldPointObs(benchmark::State& state) {
  // Yield point with the obs recorder live.  The yield point deliberately
  // carries NO obs hook (activity is reconstructed from dispatch/switch
  // events), and with an unexpiring quantum no switch ever happens — this
  // must match BM_YieldPointNoSwitch within noise.
  const bool owned = obs::Recorder::active() == nullptr;
  if (owned) obs::Recorder::install();
  rt::SchedulerConfig cfg;
  cfg.quantum = 1 << 30;
  rt::Scheduler sched(cfg);
  sched.spawn("bench", rt::kNormPriority, [&] {
    for (auto _ : state) {
      sched.yield_point();
    }
  });
  sched.run();
  if (owned) obs::Recorder::uninstall();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_YieldPointObs);

core::EngineConfig analyzed_config() {
  core::EngineConfig cfg;
  cfg.analyze = true;
  return cfg;
}

void BM_WriteOutsideSectionAnalyzed(benchmark::State& state) {
  // Analyzer cost on the write fast path: the barrier itself is unchanged,
  // the engine forwards each access to one single-owner (kExclusive)
  // lockset update.
  rt::Scheduler sched;
  core::Engine eng(sched, analyzed_config());
  heap::Heap h;
  heap::HeapObject* o = h.alloc("o", 1);
  sched.spawn("bench", rt::kNormPriority, [&] {
    std::uint64_t v = 0;
    for (auto _ : state) {
      o->set_word(0, ++v);
      benchmark::ClobberMemory();
    }
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WriteOutsideSectionAnalyzed);

void BM_WriteInsideSectionAnalyzed(benchmark::State& state) {
  // Analyzer cost on the write slow path: lockset update plus the
  // barrier-bypass lint (an appending store's entry is the log tail).
  write_inside_section(state, analyzed_config(), kMissWords);
}
BENCHMARK(BM_WriteInsideSectionAnalyzed);

void BM_YieldPointAnalyzed(benchmark::State& state) {
  // Yield point with region marking live: one field test of the thread's
  // forbidden-region depth (zero here, so the probe never fires).
  rt::SchedulerConfig cfg;
  cfg.quantum = 1 << 30;
  rt::Scheduler sched(cfg);
  core::Engine eng(sched, analyzed_config());
  sched.spawn("bench", rt::kNormPriority, [&] {
    for (auto _ : state) {
      sched.yield_point();
    }
  });
  sched.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_YieldPointAnalyzed);

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  std::printf(
      "\nExpected shape: writes outside a section cost a few ns (fast-path\n"
      "test only); inside a section the log append adds a few ns more;\n"
      "unlogged stores and clean reads are near the raw memory op.  The\n"
      "*Analyzed variants price the checker (lockset + lint per access, one\n"
      "field test per yield point).  The *Obs variants must match their\n"
      "obs-off twins within noise: neither the barrier loops nor the yield\n"
      "point carries an obs hook.\n");
  return 0;
}
