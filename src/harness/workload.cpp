#include "harness/workload.hpp"

#include <chrono>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "heap/heap.hpp"
#include "monitor/monitor.hpp"
#include "obs/recorder.hpp"

namespace rvk::harness {

namespace {

using Clock = std::chrono::steady_clock;

struct ThreadTimes {
  Clock::time_point wall_start, wall_end;
  std::uint64_t tick_start = 0, tick_end = 0;
  bool high = false;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

WorkloadResult run_workload(VmKind vm, const WorkloadParams& p) {
  rt::SchedulerConfig scfg;
  scfg.quantum = p.scheduler_quantum;
  rt::Scheduler sched(scfg);
  // Fresh scheduler ⇒ thread ids and the virtual clock restart; tell an
  // active recorder so its trace starts a new run too (metrics keep
  // accumulating — DESIGN.md §10).
  obs::on_run_begin();

  std::optional<core::Engine> engine;
  core::RevocableMonitor* rmon = nullptr;
  std::unique_ptr<monitor::BlockingMonitor> bmon;
  if (vm == VmKind::kModified) {
    engine.emplace(sched, p.engine);
    rmon = engine->make_monitor("shared");
  } else {
    bmon = std::make_unique<monitor::BlockingMonitor>("shared");
  }

  heap::Heap h;
  heap::HeapArray<std::uint64_t>* arr = h.alloc_array<std::uint64_t>(p.array_len);

  const int n = p.high_threads + p.low_threads;
  std::vector<ThreadTimes> times(static_cast<std::size_t>(n));
  std::uint64_t checksum = 0;
  std::uint64_t sections_executed = 0;

  auto thread_body = [&](int index, bool high) {
    SplitMix64 rng(p.seed ^ (0x9E3779B97F4A7C15ULL *
                             static_cast<std::uint64_t>(index + 1)));
    ThreadTimes& tm = times[static_cast<std::size_t>(index)];
    tm.high = high;
    tm.wall_start = Clock::now();
    tm.tick_start = sched.now();

    const std::uint64_t iters = high ? p.high_iters : p.low_iters;
    for (int s = 0; s < p.sections_per_thread; ++s) {
      // Random arrival at the monitor (§4.1).
      sched.sleep_for(rng.next_below(2 * p.avg_pause_ticks + 1));

      // The section seed is drawn *outside* the section, so a revoked
      // section re-executes the exact same operation sequence — the paper's
      // saved locals/operand stack.
      const std::uint64_t section_seed = rng.next();
      std::uint64_t acc = 0;
      auto section = [&] {
        acc = 0;  // reset on retry: the body must be heap-idempotent
        SplitMix64 srng(section_seed);
        // §4.1: "an interleaved sequence of read and write operations" at
        // the configured ratio.  The interleaving is deterministic (an
        // error-diffusion accumulator), not per-op random: it spreads
        // writes evenly exactly as "interleaved" describes, and keeps the
        // per-operation cost independent of the ratio (a per-op random
        // branch would add ratio-dependent misprediction cost to BOTH VMs
        // and warp the normalized curves).
        unsigned wacc = 50;
        for (std::uint64_t i = 0; i < iters; ++i) {
          const std::size_t idx =
              static_cast<std::size_t>(srng.next_below(p.array_len));
          // A short dependent ALU chain models the per-access cost of
          // JIT-compiled Java on the paper's platform (null/bounds checks,
          // barrier fast path, object addressing) so that the logging
          // slow path is a *fraction* of an operation, as in the paper,
          // rather than dominating it.  Identical for reads and writes and
          // for both VMs.  See DESIGN.md "workload calibration".
          acc = (acc ^ (acc >> 17)) * 0x9E3779B97F4A7C15ULL + i;
          acc ^= acc >> 29;
          wacc += p.write_percent;
          if (wacc >= 100) {
            wacc -= 100;
            arr->set(idx, acc);
          } else {
            acc += arr->get(idx);
          }
          sched.yield_point();
        }
      };

      if (vm == VmKind::kModified) {
        engine->synchronized(*rmon, section);
      } else {
        bmon->acquire();
        section();
        bmon->release();
      }
      checksum += acc;
      ++sections_executed;
    }

    tm.wall_end = Clock::now();
    tm.tick_end = sched.now();
  };

  // High-priority threads first, then low; the random pre-entry pauses
  // decorrelate the arrival order from the spawn order.
  for (int i = 0; i < n; ++i) {
    const bool high = i < p.high_threads;
    sched.spawn((high ? "high-" : "low-") + std::to_string(i),
                high ? p.high_priority : p.low_priority,
                [&thread_body, i, high] { thread_body(i, high); });
  }
  sched.run();

  WorkloadResult r;
  Clock::time_point hi_start{}, hi_end{}, all_start{}, all_end{};
  std::uint64_t hi_t0 = UINT64_MAX, hi_t1 = 0, all_t0 = UINT64_MAX, all_t1 = 0;
  bool hi_seen = false, all_seen = false;
  for (const ThreadTimes& tm : times) {
    if (!all_seen || tm.wall_start < all_start) all_start = tm.wall_start;
    if (!all_seen || tm.wall_end > all_end) all_end = tm.wall_end;
    all_seen = true;
    all_t0 = std::min(all_t0, tm.tick_start);
    all_t1 = std::max(all_t1, tm.tick_end);
    if (tm.high) {
      if (!hi_seen || tm.wall_start < hi_start) hi_start = tm.wall_start;
      if (!hi_seen || tm.wall_end > hi_end) hi_end = tm.wall_end;
      hi_seen = true;
      hi_t0 = std::min(hi_t0, tm.tick_start);
      hi_t1 = std::max(hi_t1, tm.tick_end);
    }
  }
  if (hi_seen) {
    r.high_elapsed_s = seconds_between(hi_start, hi_end);
    r.high_elapsed_ticks = hi_t1 - hi_t0;
  }
  if (all_seen) {
    r.overall_elapsed_s = seconds_between(all_start, all_end);
    r.overall_elapsed_ticks = all_t1 - all_t0;
  }
  if (engine.has_value()) r.engine = engine->stats();
  if (obs::Recorder* rec = obs::Recorder::active()) {
    // Publish the legacy stats structs into the unified registry (they stay
    // the storage; the registry is the export surface — obs/metrics.hpp).
    if (engine.has_value()) {
      engine->publish_metrics(rec->registry());
    } else {
      obs::publish(rec->registry(), bmon->stats(),
                   "monitor." + bmon->name() + ".stats.");
    }
  }
  r.sections_executed = sections_executed;
  r.checksum = checksum;
  return r;
}

}  // namespace rvk::harness
