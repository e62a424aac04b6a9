// Micro-costs of the undo log: append (the write-barrier slow path's core),
// a short committed section (appends plus the commit's truncation, timed
// together because a paused timer costs more than either), and reverse
// replay (the rollback cost charged to revoked threads).
#include <benchmark/benchmark.h>

#include <vector>

#include "log/undo_log.hpp"

namespace {

using rvk::log::UndoLog;
using rvk::log::Word;

void BM_LogAppend(benchmark::State& state) {
  UndoLog log(1 << 20);
  std::vector<Word> slots(256, 0);
  std::size_t i = 0;
  for (auto _ : state) {
    Word* addr = &slots[i & 255];
    log.record(addr, *addr);
    if (log.size() >= (1u << 20)) log.discard_all();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LogAppend);

void BM_LogRollback(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  UndoLog log(n);
  std::vector<Word> slots(256, 0);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < n; ++i) {
      Word* addr = &slots[i & 255];
      log.record(addr, *addr);
      *addr = i;
    }
    state.ResumeTiming();
    log.rollback_to(0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel("words undone per rollback: " + std::to_string(n));
}
// Below ~1024 words the pause/resume pair outweighs the replay it brackets.
BENCHMARK(BM_LogRollback)->Arg(1024)->Arg(16384);

// One committed section: N appends into a hot log, then the commit's O(1)
// truncation.  48 appends per section is what an open_revocation request
// logs in the repository benchmark.
void BM_LogSection(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  UndoLog log(n);
  std::vector<Word> slots(n, 0);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) log.record(&slots[i], slots[i]);
    log.discard_all();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LogSection)->Arg(48)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
