// rvk_explore — deterministic schedule exploration (DESIGN.md §9).
//
// The green-thread runtime context-switches only at yield points, so an
// interleaving is exactly a sequence of dispatch decisions.  The explorer
// runs a *scenario* (a callback that spawns threads against a fresh
// Scheduler + Engine) many times, each time steering those decisions with
// an ExplorationStrategy:
//
//  * kExhaustive — bounded DFS over preemption points (CHESS-style);
//  * kRandom    — N seeded random walks (RVK_EXPLORE_SEED);
//  * kReplay    — byte-for-byte re-execution of a recorded trace.
//
// After every step an invariant registry asserts the monitor / undo-log /
// pin-closure invariants; the first failing schedule stops the search and
// its decision trace is returned (and archived to $RVK_EXPLORE_TRACE_DIR
// when set) so the failure replays deterministically under kReplay.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "explore/strategy.hpp"
#include "explore/trace.hpp"
#include "rt/scheduler.hpp"

namespace rvk::explore {

enum class Mode : std::uint8_t {
  kExhaustive,
  kRandom,
  kReplay,
};

struct ExploreOptions {
  Mode mode = Mode::kExhaustive;

  // kExhaustive: preemptions allowed per schedule.  Forced switches are
  // free; the bound only limits taking the processor from a still-runnable
  // thread.
  int preemption_bound = 2;

  // kExhaustive: stop after this many schedules even if the space is not
  // exhausted (0 = run to completion).
  std::uint64_t max_schedules = 0;

  // kRandom: number of trials.
  std::uint64_t trials = 200;

  // kRandom: base seed; 0 consults RVK_EXPLORE_SEED, falling back to a
  // fixed default so CI stays reproducible.
  std::uint64_t seed = 0;

  // kRandom: probability (percent) of preempting a still-runnable thread.
  unsigned preempt_percent = 25;

  // Fail any schedule that makes more dispatch decisions than this
  // (runaway/livelock guard; the schedule is drained and reported).
  std::uint64_t max_steps = 100000;

  // kReplay: the encoded decision trace (encode_trace format; archived
  // trace files with '#' headers are accepted verbatim).
  std::string replay_trace;

  // Stem for archived failing-trace filenames.
  std::string name = "scenario";

  // Per-schedule construction parameters.  quantum is forced to 1 so that
  // each yield point is a decision point (quasi-preemptive atomicity makes
  // that enumeration complete); on_stall is forced to kReturn so a stall
  // fails the schedule instead of aborting the process.
  rt::SchedulerConfig sched;
  core::EngineConfig engine;

  // Assert the protocol invariants after every step (invariants.hpp).
  bool check_invariants = true;
};

struct ExploreResult {
  std::uint64_t schedules = 0;  // schedules executed
  std::uint64_t decisions = 0;  // decision points across all schedules
  std::uint64_t checks = 0;     // invariant sweeps run
  bool complete = false;        // kExhaustive: space exhausted under bound
  bool failed = false;
  std::string failure;                 // first failing schedule's message
  std::string failure_trace;           // its encoded decision trace
  std::uint64_t failing_schedule = 0;  // 0-based schedule index
  std::string trace_file;              // archive path ("" unless archived)
};

// Per-schedule context handed to the scenario.  Objects the scenario
// allocates through make<T>() are retained for the schedule and destroyed
// before the Engine — the right order for scenario-owned RevocableMonitors,
// which unregister from their engine on destruction.  Thread bodies should
// capture such objects by raw pointer.
class ScenarioContext {
 public:
  ScenarioContext(rt::Scheduler& sched, core::Engine& engine)
      : sched_(sched), engine_(engine) {}

  ScenarioContext(const ScenarioContext&) = delete;
  ScenarioContext& operator=(const ScenarioContext&) = delete;

  rt::Scheduler& sched() { return sched_; }
  core::Engine& engine() { return engine_; }

  template <typename T, typename... Args>
  T* make(Args&&... args) {
    auto obj = std::make_shared<T>(std::forward<Args>(args)...);
    T* raw = obj.get();
    retained_.push_back(std::move(obj));
    return raw;
  }

  // Registers a check to run after the schedule drained cleanly; throw
  // (anything) to fail the schedule.
  void after_run(std::function<void()> check) {
    post_checks_.push_back(std::move(check));
  }

  void run_post_checks() {
    for (auto& f : post_checks_) f();
  }

 private:
  rt::Scheduler& sched_;
  core::Engine& engine_;
  std::vector<std::shared_ptr<void>> retained_;
  std::vector<std::function<void()>> post_checks_;
};

// A scenario spawns threads (and allocates monitors/probe state) against
// the fresh per-schedule runtime in `ctx`.  It is invoked once per
// schedule and must be deterministic: same schedule in, same behaviour
// out.
using Scenario = std::function<void(ScenarioContext&)>;

// Runs the exploration described by `opts` and returns the summary.  Stops
// at the first failing schedule.
ExploreResult explore(const Scenario& scenario, ExploreOptions opts);

// Convenience wrapper: replays one encoded trace against the scenario
// (opts.mode/replay_trace are overwritten).
ExploreResult replay(const Scenario& scenario, std::string_view trace,
                     ExploreOptions opts);

}  // namespace rvk::explore
