#include "svc/arrivals.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace rvk::svc {

namespace {

// detail::first_arrival_*'s one body: the Poisson arrival test of 32 stream
// positions per step.  Under the AVX-512 target GCC turns the fixed-width
// inner loop into 8-lane code; keep the shape (a 32-bit kStep, a min over
// `hit ? j : kStep`), since equivalent spellings such as a 64-bit kStep
// defeat the vectorizer and leave the scalar loop.  Positions past `limit`
// may be computed but are never reported.
[[gnu::always_inline]] inline std::uint64_t first_arrival_body(
    std::uint64_t state, std::uint32_t rate, std::uint64_t limit) {
  constexpr std::uint32_t kStep = 32;
  for (std::uint64_t base = 0;; base += kStep) {
    const std::uint64_t origin = state + base * SplitMix64::kGamma;
    std::uint64_t first = kStep;
    for (std::uint64_t j = 0; j < kStep; ++j) {
      const std::uint64_t z =
          SplitMix64::mix(origin + (j + 1) * SplitMix64::kGamma);
      first = std::min(first, (z % kProbOne) < rate ? j : kStep);
    }
    if (first < kStep) return std::min(base + first, limit);
    if (limit - base <= kStep) return limit;
  }
}

using FirstArrivalFn = std::uint64_t (*)(std::uint64_t, std::uint32_t,
                                         std::uint64_t);

// Chosen once per process by a plain CPU test, not an ifunc
// (target_clones): ifunc resolvers run during relocation, before the TSan
// runtime is initialised, and such a build crashes at start-up under TSan.
FirstArrivalFn select_first_arrival() {
#if defined(__x86_64__)
  if (detail::avx512_usable()) return detail::first_arrival_avx512;
#endif
  return detail::first_arrival_base;
}

// Picks a tier index from the cumulative weight walk.  Linear in the tier
// count, which is small (3-4 SLO classes).
std::uint32_t pick_tier(const std::vector<std::uint32_t>& weights,
                        std::uint64_t total, SplitMix64& rng) {
  std::uint64_t r = rng.next_below(total);
  for (std::uint32_t i = 0; i < weights.size(); ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  RVK_UNREACHABLE("tier weight walk exhausted");
}

}  // namespace

namespace detail {

std::uint64_t first_arrival_base(std::uint64_t state, std::uint32_t rate,
                                 std::uint64_t limit) {
  return first_arrival_body(state, rate, limit);
}

#if defined(__x86_64__)
[[gnu::target("avx512f,avx512dq,avx512vl")]] std::uint64_t
first_arrival_avx512(std::uint64_t state, std::uint32_t rate,
                     std::uint64_t limit) {
  return first_arrival_body(state, rate, limit);
}
#endif

bool avx512_usable() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

}  // namespace detail

ArrivalSchedule generate(const ArrivalConfig& cfg, std::uint64_t duration,
                         std::uint64_t seed) {
  RVK_CHECK_MSG(!cfg.tier_weights.empty(), "arrival config needs >= 1 tier");
  std::uint64_t weight_total = 0;
  for (std::uint32_t w : cfg.tier_weights) weight_total += w;
  RVK_CHECK_MSG(weight_total > 0, "tier weights must not all be zero");
  if (cfg.kind == ArrivalKind::kBursty) {
    RVK_CHECK_MSG(cfg.burst_len > 0 && cfg.idle_len > 0,
                  "bursty sojourn means must be nonzero");
  }

  SplitMix64 rng(seed);
  ArrivalSchedule out;
  out.duration = duration;
  auto emit = [&](std::uint64_t tick) {
    const std::uint32_t tier = pick_tier(cfg.tier_weights, weight_total, rng);
    out.arrivals.push_back({tick, tier, rng.next()});
  };
  if (cfg.kind == ArrivalKind::kPoisson) {
    // One draw per tick, next_below(kProbOne) < rate, with the quiet draws
    // before each arrival skipped in bulk.  Same stream, same positions.
    static const FirstArrivalFn first_arrival = select_first_arrival();
    for (std::uint64_t tick = 0; tick < duration; ++tick) {
      const std::uint64_t quiet =
          first_arrival(rng.state(), cfg.rate, duration - tick);
      if (quiet == duration - tick) break;
      tick += quiet;
      rng.discard(quiet + 1);  // the quiet draws and the arrival's own
      emit(tick);
    }
    return out;
  }
  // Start in the burst state: a sweep's first requests should meet traffic,
  // not a silent idle sojourn.
  bool burst = true;
  for (std::uint64_t tick = 0; tick < duration; ++tick) {
    // Geometric sojourns: leave the current state with probability 1/mean
    // per tick, sampled BEFORE emitting so sojourn lengths and arrival draws
    // come from disjoint positions of the stream.
    const std::uint64_t stay = burst ? cfg.burst_len : cfg.idle_len;
    if (rng.next_below(stay) == 0) burst = !burst;
    const std::uint32_t rate = burst ? cfg.burst_rate : cfg.idle_rate;
    if (burst) ++out.burst_ticks;
    if (rng.next_below(kProbOne) < rate) emit(tick);
  }
  return out;
}

double offered_rate(const ArrivalConfig& cfg) {
  if (cfg.kind == ArrivalKind::kPoisson) {
    return static_cast<double>(cfg.rate) / kProbOne;
  }
  const double duty = static_cast<double>(cfg.burst_len) /
                      static_cast<double>(cfg.burst_len + cfg.idle_len);
  return (duty * cfg.burst_rate + (1.0 - duty) * cfg.idle_rate) / kProbOne;
}

}  // namespace rvk::svc
