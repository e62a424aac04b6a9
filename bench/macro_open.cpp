// Open-loop macro benchmark: SLO-tiered traffic against the bank service,
// swept to saturation under all four inversion-avoidance protocols
// (DESIGN.md §15).
//
// Unlike a closed-loop population (the figure benches, whose threads cannot
// arrive while their previous request is still queued — coordinated
// omission), this driver injects a precomputed arrival schedule on the
// virtual clock and never waits: latency is charged from the *scheduled*
// arrival tick, so queueing delay shows up in the tails where it belongs.
// Each tier maps to a scheduler priority and an entry deadline enforced
// with abortable acquisition (§14) — a missed SLO is a counted give-up,
// never a hang, so the sweep can cross the saturation knee safely.
//
// Sweep: offered load rho ∈ {50, 80, 95}% of the calibrated service
// capacity, Poisson arrivals, for each protocol; plus one bursty (MMPP-2)
// point at mean rho=80% to show what burst clustering does to the tails.
// Everything runs on virtual ticks with a fixed seed: the numbers are
// deterministic and byte-identical across platforms (integer-only arrival
// sampling — see svc/arrivals.hpp).
//
// Knobs: RVK_SEED (schedule + workload seed), RVK_MACRO_SMOKE=1 (CI: one
// rho=80 Poisson point per protocol, shorter window), RVK_MACRO_DURATION
// (injection window in ticks), RVK_MACRO_JSON (registry export path,
// default BENCH_macro_open.json).  With RVK_OBS / RVK_OBS_METRICS set, one
// recorder spans the whole sweep, every protocol and load point, and writes
// its metrics when it is uninstalled at the end.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "svc/driver.hpp"

namespace {

using namespace rvk;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 10) : fallback;
}

// Mean synchronized-section length over the default tier mix, in ticks
// (one yield point per transfer step): sum(weight*ops)/sum(weight).  The
// virtual clock serializes sections across shards — one tick per yield
// globally — so the service saturates at ~1 request per kMeanOps ticks and
// rho is offered_rate * kMeanOps.
constexpr std::uint64_t kMeanOps = 88;  // (2*4 + 3*24 + 5*160) / 10

std::uint32_t rate_for_rho(unsigned rho_pct) {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(svc::kProbOne) * rho_pct) /
      (100 * kMeanOps));
}

struct Point {
  std::string label;           // "rho=80" | "bursty"
  svc::ArrivalConfig arrivals; // tier_weights filled in by the driver
};

void print_point(const svc::OpenLoopResult& r, svc::Protocol proto,
                 const std::string& label,
                 const std::vector<svc::TierSpec>& tiers) {
  std::printf("  %-11s %-8s arrivals=%llu span=%llu rollbacks=%llu\n",
              svc::protocol_name(proto), label.c_str(),
              static_cast<unsigned long long>(r.arrivals),
              static_cast<unsigned long long>(r.total_ticks),
              static_cast<unsigned long long>(r.rollbacks));
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    std::printf("    %-6s %s\n", r.recorder.name(t).c_str(),
                r.recorder.summary(t, r.total_ticks).c_str());
  }
}

}  // namespace

int main() {
  const std::uint64_t seed = env_u64("RVK_SEED", 42);
  const bool smoke = env_u64("RVK_MACRO_SMOKE", 0) != 0;
  const std::uint64_t duration =
      env_u64("RVK_MACRO_DURATION", smoke ? 20'000 : 40'000);
  const char* json_env = std::getenv("RVK_MACRO_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env
                                               : "BENCH_macro_open.json";

  const std::vector<svc::TierSpec> tiers = svc::default_tiers();

  std::vector<Point> points;
  if (smoke) {
    svc::ArrivalConfig a;
    a.kind = svc::ArrivalKind::kPoisson;
    a.rate = rate_for_rho(80);
    points.push_back({"rho=80", a});
  } else {
    for (unsigned rho : {50u, 80u, 95u}) {
      svc::ArrivalConfig a;
      a.kind = svc::ArrivalKind::kPoisson;
      a.rate = rate_for_rho(rho);
      points.push_back({"rho=" + std::to_string(rho), a});
    }
    // Bursty point: same mean load as rho=80, delivered as geometric
    // on/off bursts (duty cycle 1/2, burst rate 1.5x the mean).
    svc::ArrivalConfig b;
    b.kind = svc::ArrivalKind::kBursty;
    b.burst_rate = rate_for_rho(120);
    b.idle_rate = rate_for_rho(40);
    b.burst_len = 2000;
    b.idle_len = 2000;
    points.push_back({"bursty", b});
    // Surge point: a 20x thundering herd for the whole window.  Peak
    // in-flight climbs past the old 4096 admission cap (entry deadlines
    // bound the queue well below the naive arrivals-minus-capacity
    // estimate, hence the big multiplier), inside the raised 16384 one —
    // every arrival is admitted and either completes or gives up on its
    // deadline; nothing is shed.  Exercises the O(max_in_flight) memory
    // bound and deadline accounting at depth.
    svc::ArrivalConfig s;
    s.kind = svc::ArrivalKind::kPoisson;
    s.rate = rate_for_rho(2000);
    points.push_back({"surge", s});
  }

  std::printf(
      "macro_open: open-loop SLO-tiered traffic vs the bank service\n"
      "  tiers: gold(prio 9, ddl 1500, 4 ops) silver(prio 6, ddl 3000, "
      "24 ops) bronze(prio 3, ddl 12000, 160 ops)\n"
      "  capacity ~1 req / %llu ticks; window %llu ticks; seed %llu%s\n\n",
      static_cast<unsigned long long>(kMeanOps),
      static_cast<unsigned long long>(duration),
      static_cast<unsigned long long>(seed), smoke ? " [smoke]" : "");

  // Install here, not per load point: each revocation run's engine adopts
  // this recorder instead of installing (and exporting) its own.
  const bool obs_owned =
      obs::Recorder::env_enabled() && obs::Recorder::active() == nullptr;
  if (obs_owned) obs::Recorder::install();
  obs::Registry reg;
  for (const svc::Protocol proto : svc::kAllProtocols) {
    for (const Point& pt : points) {
      svc::OpenLoopConfig cfg;
      cfg.arrivals = pt.arrivals;
      cfg.tiers = tiers;
      cfg.service.protocol = proto;
      cfg.duration = duration;
      cfg.seed = seed;
      const svc::OpenLoopResult r = svc::run_open_loop(cfg);
      print_point(r, proto, pt.label, tiers);

      const std::string prefix =
          std::string("macro_open/") + svc::protocol_name(proto) + "/" +
          pt.label + "/";
      r.recorder.publish(reg, prefix);
      reg.counter(prefix + "arrivals") += r.arrivals;
      reg.counter(prefix + "rollbacks") += r.rollbacks;
      reg.set_max(prefix + "max_in_flight", r.max_in_flight_seen);
    }
    std::printf("\n");
  }
  if (obs_owned) obs::Recorder::uninstall();

  {
    std::ofstream os(json_path);
    RVK_CHECK_MSG(os.good(), "cannot open macro_open JSON export path");
    reg.write_json(os, {{"bench", "macro_open"},
                        {"seed", std::to_string(seed)},
                        {"duration", std::to_string(duration)},
                        {"smoke", smoke ? "1" : "0"}});
  }
  std::printf("wrote %s\n\n", json_path.c_str());

  std::printf(
      "Expected shape: gold p99/p999 rank blocking > inheritance > ceiling\n"
      "> revocation, and the gap widens with load — blocking lets a bronze\n"
      "section sit in front of gold for ~its full length, inheritance and\n"
      "ceiling bound the wait by the remainder of one boosted section, and\n"
      "revocation preempts the section outright, holding gold p99 near its\n"
      "own service cost at every rho.  The bill goes to bronze: under\n"
      "revocation its tails stretch by the re-executed work (rollbacks > 0,\n"
      "span grows past the window) and at rho=95 bronze give-ups appear —\n"
      "counted, not hung.  No other protocol misses its entry deadlines at\n"
      "these calibrations.  The bursty point matches rho=80's mean load\n"
      "with clumpier queueing.  The surge point (20x overload) drives\n"
      "peak in-flight to ~6k — inside the 16384 admission cap, so sheds\n"
      "stay 0 and the overload resolves entirely as give-ups vs\n"
      "completions per tier SLO.  All numbers are virtual ticks and\n"
      "deterministic for a fixed RVK_SEED.\n");
  return 0;
}
