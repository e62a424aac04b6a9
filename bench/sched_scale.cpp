// Scheduler scalability: dispatch cost vs green-thread count (DESIGN.md §8).
//
// The pre-bitmap scheduler paid O(ready threads) in pick_next() and
// O(sleeping threads) per virtual-clock tick, so per-dispatch cost grew with
// population.  With the per-priority intrusive FIFO lists + occupancy bitmap
// and the deadline min-heap, a dispatch is find-first-set + list pop: cost
// must stay flat from 10 threads to 10,000.
//
// Each population runs the same total amount of work (kTotalYields yield
// points spread evenly over the threads, quantum 1 so every yield rotates),
// plus a sleep/wake phase exercising the timer heap at the same scale.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "rt/scheduler.hpp"

namespace {

using namespace rvk;

struct Outcome {
  double ns_per_dispatch;
  double ns_per_sleep_cycle;
  std::uint64_t dispatches;
};

Outcome run(int nthreads) {
  // Same total work at every population: per-thread share shrinks as the
  // population grows.
  constexpr std::uint64_t kTotalYields = 1u << 20;  // ~1M dispatches
  const std::uint64_t yields_each = kTotalYields / nthreads;

  rt::SchedulerConfig cfg;
  cfg.quantum = 1;            // rotate on every yield point
  cfg.stack_size = 16 * 1024; // 10k threads => ~160MB of stacks, fine
  rt::Scheduler sched(cfg);
  for (int i = 0; i < nthreads; ++i) {
    sched.spawn(std::string("t").append(std::to_string(i)), rt::kNormPriority,
                [&sched, yields_each] {
      for (std::uint64_t k = 0; k < yields_each; ++k) sched.yield_point();
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  sched.run();
  const double rotate_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::uint64_t dispatches = sched.dispatches();

  // Sleep/wake churn: every thread arms a deadline, the clock fast-forwards,
  // all wake — repeated.  Exercises arm_timer / fire_due_timers at scale.
  constexpr int kSleepRounds = 8;
  rt::Scheduler sched2(cfg);
  for (int i = 0; i < nthreads; ++i) {
    sched2.spawn(std::string("s").append(std::to_string(i)), rt::kNormPriority,
                 [&sched2] {
      for (int r = 0; r < kSleepRounds; ++r) sched2.sleep_for(100);
    });
  }
  const auto t1 = std::chrono::steady_clock::now();
  sched2.run();
  const double sleep_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();

  Outcome o;
  o.ns_per_dispatch = rotate_s * 1e9 / static_cast<double>(dispatches);
  o.ns_per_sleep_cycle =
      sleep_s * 1e9 / static_cast<double>(nthreads) / kSleepRounds;
  o.dispatches = dispatches;
  return o;
}

}  // namespace

int main() {
  std::printf(
      "sched_scale: per-dispatch cost vs green-thread population\n"
      "(constant total work: ~1M yield points split across the threads,\n"
      "quantum 1, 16KB stacks; sleep phase: 8 sleep/wake rounds each)\n\n");
  std::printf("%-10s %12s %16s %20s\n", "threads", "dispatches",
              "ns/dispatch", "ns/sleep-wake cycle");
  for (int n : {10, 100, 1000, 10000}) {
    const Outcome o = run(n);
    std::printf("%-10d %12llu %16.1f %20.1f\n", n,
                static_cast<unsigned long long>(o.dispatches),
                o.ns_per_dispatch, o.ns_per_sleep_cycle);
  }
  std::printf(
      "\nExpected shape: ns/dispatch roughly flat from 10 to 10,000 threads\n"
      "(O(1) bitmap pick + list pop; no O(n) ready scan) — a residual drift\n"
      "of ~2x at 10k threads is cache pressure from the ~160MB of stacks and\n"
      "thread objects, not queue length.  ns/sleep-wake grows only\n"
      "logarithmically (deadline min-heap), not linearly as the old per-tick\n"
      "sleeper sweep did.\n");
  return 0;
}
