#include "explore/explorer.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "explore/invariants.hpp"

namespace rvk::explore {

namespace {

std::uint64_t resolve_seed(std::uint64_t seed) {
  if (seed != 0) return seed;
  if (const char* env = std::getenv("RVK_EXPLORE_SEED")) {
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(env, &end, 0);
    if (end != env && v != 0) return v;
  }
  return 0xC0FFEEULL;  // fixed default: CI runs are reproducible as-is
}

struct RunOutcome {
  bool failed = false;
  std::string failure;
  std::vector<Decision> trace;
  std::uint64_t checks = 0;
};

// Runs one schedule from scratch: fresh scheduler, engine, registry and
// scenario state, every decision steered by `strategy`.
RunOutcome run_one(const Scenario& scenario, const ExploreOptions& opts,
                   ExplorationStrategy& strategy) {
  RunOutcome out;

  rt::SchedulerConfig scfg = opts.sched;
  scfg.quantum = 1;
  scfg.on_stall = rt::SchedulerConfig::OnStall::kReturn;
  rt::Scheduler sched(scfg);
  core::Engine engine(sched, opts.engine);  // after the Scheduler (CLAUDE.md)
  InvariantRegistry registry(sched, engine);
  // Declared after the Engine: scenario-owned monitors created through
  // make<>() must unregister (their destructor) while the engine is alive.
  ScenarioContext ctx(sched, engine);

  bool overrun = false;
  // The previous choice by id: its block may host a later thread by now.
  rt::ThreadId prev = 0;
  sched.set_pick_hook(
      [&](const std::vector<rt::VThread*>& cands) -> rt::VThread* {
        int prev_index = -1;
        for (std::size_t i = 0; i < cands.size(); ++i) {
          if (cands[i]->id() == prev) prev_index = static_cast<int>(i);
        }
        rt::VThread* chosen;
        if (out.trace.size() >= opts.max_steps) {
          // Runaway schedule: stop branching and drain with default
          // choices; the step hook converts this into a failure from
          // green-thread context (throwing here would tear through the
          // scheduler loop).
          if (!overrun) {
            overrun = true;
            out.failure = "schedule exceeded max_steps (" +
                          std::to_string(opts.max_steps) +
                          ") dispatch decisions — livelocked interleaving?";
          }
          chosen = prev_index >= 0 ? cands[prev_index] : cands.front();
        } else {
          chosen = strategy.pick(cands, prev_index);
        }
        prev = chosen->id();
        out.trace.push_back(Decision{static_cast<std::uint32_t>(cands.size()),
                                     chosen->id()});
        return chosen;
      });
  if (opts.check_invariants) engine.subscribe(&registry);
  sched.set_step_hook([&](rt::VThread* t) {
    if (overrun) [[unlikely]] throw InvariantViolation{out.failure};
    if (opts.check_invariants) registry.check_step(t);
  });

  scenario(ctx);

  try {
    sched.run();
    if (sched.stalled()) {
      out.failed = true;
      out.failure = "scheduler stalled: unbroken deadlock or lost wakeup";
    } else {
      if (opts.check_invariants) registry.check_final();
      ctx.run_post_checks();
    }
  } catch (const InvariantViolation& v) {
    out.failed = true;
    out.failure = v.message;
  } catch (const std::exception& e) {
    out.failed = true;
    out.failure = e.what();
  } catch (...) {
    out.failed = true;
    out.failure = "non-standard exception escaped the scenario";
  }
  if (opts.check_invariants) engine.unsubscribe(&registry);
  if (!out.failed && overrun) out.failed = true;  // drained clean, still fail
  out.checks = registry.checks_run();
  return out;
}

std::string first_line(const std::string& s) {
  const std::size_t eol = s.find('\n');
  return eol == std::string::npos ? s : s.substr(0, eol);
}

// Archives the failing trace (with a human-readable header decode_trace
// skips) so CI can upload it and a developer can replay it locally.
void archive_failure(ExploreResult& res, const ExploreOptions& opts) {
  const char* dir = std::getenv("RVK_EXPLORE_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return;
  const std::filesystem::path path =
      std::filesystem::path(dir) /
      (opts.name + "-schedule" + std::to_string(res.failing_schedule) +
       ".trace");
  std::ofstream f(path);
  if (!f) return;
  f << "# rvk_explore failing schedule\n";
  f << "# scenario: " << opts.name << "\n";
  f << "# schedule: " << res.failing_schedule << "\n";
  f << "# failure: " << first_line(res.failure) << "\n";
  f << res.failure_trace << "\n";
  res.trace_file = path.string();
}

}  // namespace

ExploreResult explore(const Scenario& scenario, ExploreOptions opts) {
  ExploreResult res;

  std::unique_ptr<ExplorationStrategy> strategy;
  switch (opts.mode) {
    case Mode::kExhaustive:
      strategy = std::make_unique<DfsStrategy>(opts.preemption_bound);
      break;
    case Mode::kRandom:
      strategy = std::make_unique<RandomStrategy>(
          resolve_seed(opts.seed), opts.trials, opts.preempt_percent);
      break;
    case Mode::kReplay: {
      std::vector<Decision> trace;
      if (!decode_trace(opts.replay_trace, trace)) {
        res.failed = true;
        res.failure = "malformed replay trace";
        return res;
      }
      strategy = std::make_unique<ReplayStrategy>(std::move(trace));
      break;
    }
  }

  for (;;) {
    strategy->begin_schedule();
    RunOutcome out = run_one(scenario, opts, *strategy);
    ++res.schedules;
    res.decisions += out.trace.size();
    res.checks += out.checks;
    if (!out.failed && opts.mode == Mode::kReplay) {
      // A replay that ran clean but off-trace is still a failure: the
      // recorded schedule was not reproduced.
      const auto* rs = static_cast<const ReplayStrategy*>(strategy.get());
      if (!rs->divergence().empty()) {
        out.failed = true;
        out.failure = rs->divergence();
      }
    }
    if (out.failed) {
      res.failed = true;
      res.failure = std::move(out.failure);
      res.failure_trace = encode_trace(out.trace);
      res.failing_schedule = res.schedules - 1;
      archive_failure(res, opts);
      break;
    }
    if (opts.mode == Mode::kReplay) break;
    if (opts.max_schedules != 0 && res.schedules >= opts.max_schedules) break;
    if (!strategy->next_schedule()) {
      res.complete = opts.mode == Mode::kExhaustive;
      break;
    }
  }
  return res;
}

ExploreResult replay(const Scenario& scenario, std::string_view trace,
                     ExploreOptions opts) {
  opts.mode = Mode::kReplay;
  opts.replay_trace = std::string(trace);
  return explore(scenario, opts);
}

}  // namespace rvk::explore
