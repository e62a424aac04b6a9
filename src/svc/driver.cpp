#include "svc/driver.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace rvk::svc {

OpenLoopResult run_open_loop(const OpenLoopConfig& cfg) {
  RVK_CHECK_MSG(!cfg.tiers.empty(), "open-loop run needs >= 1 tier");
  RVK_CHECK_MSG(cfg.max_in_flight > 0, "admission cap must be positive");

  ArrivalConfig acfg = cfg.arrivals;
  acfg.tier_weights.clear();
  std::vector<std::string> tier_names;
  for (const TierSpec& t : cfg.tiers) {
    acfg.tier_weights.push_back(t.weight);
    tier_names.push_back(t.name);
  }
  const ArrivalSchedule plan = generate(acfg, cfg.duration, cfg.seed);

  rt::SchedulerConfig scfg;
  scfg.quantum = cfg.quantum;
  scfg.stack_size = cfg.stack_size;
  // Priority protocols are only meaningful when priorities pick who runs
  // (the baseline-ablation setting; the engine's victim boost keeps
  // revocation live under strict priority too — Engine::begin_boost).
  scfg.strict_priority = true;
  rt::Scheduler sched(scfg);
  BankService service(sched, cfg.service);

  OpenLoopResult res{TierRecorder(std::move(tier_names))};
  res.arrivals = plan.arrivals.size();
  res.ledger_initial = service.ledger_total();

  int in_flight = 0;
  std::uint64_t in_flight_hw = 0;

  // The injector outranks every tier so injection timing tracks the
  // schedule even at saturation: an open-loop generator must not be
  // backpressured by the system under test.
  sched.spawn("injector", rt::kMaxPriority, [&] {
    for (const Arrival& a : plan.arrivals) {
      if (a.tick > sched.now()) sched.sleep_for(a.tick - sched.now());
      const TierSpec& tier = cfg.tiers[a.tier];
      if (in_flight >= cfg.max_in_flight) {
        res.recorder.record_shed(a.tier);
        continue;
      }
      ++in_flight;
      in_flight_hw =
          std::max(in_flight_hw, static_cast<std::uint64_t>(in_flight));
      sched.spawn(tier.name, tier.priority, [&, a] {
        const TierSpec& t = cfg.tiers[a.tier];
        SplitMix64 rng(a.seed);
        // The SLO deadline is absolute from the scheduled arrival: time a
        // request spent waiting for its first dispatch already counts
        // against it.  A request dispatched past its deadline degrades to
        // one non-blocking entry attempt (budget 0).
        const std::uint64_t deadline = a.tick + t.deadline_ticks;
        const std::uint64_t now = sched.now();
        const std::uint64_t budget = deadline > now ? deadline - now : 0;
        if (service.execute(t.section_ops, budget, rng)) {
          res.recorder.record_latency(a.tier, sched.now() - a.tick);
        } else {
          res.recorder.record_giveup(a.tier);
        }
        --in_flight;
      });
    }
  });

  sched.run();

  res.total_ticks = sched.now();
  res.rollbacks = service.rollbacks();
  res.entry_giveups = service.entry_giveups();
  res.max_in_flight_seen = in_flight_hw;
  res.ledger_final = service.ledger_total();
  RVK_CHECK_MSG(res.ledger_final == res.ledger_initial,
                "open-loop ledger lost money: rollback or protocol bug");
  return res;
}

}  // namespace rvk::svc
