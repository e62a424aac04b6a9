#include "svc/arrivals.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/check.hpp"
#include "common/rng.hpp"

namespace rvk::svc {

namespace {

using detail::HitMaskFn;

#if defined(__x86_64__)
// Eight 64-bit lanes.  The body's arithmetic is written on this GCC vector
// type rather than with _mm512_srli_epi64 and friends, whose GCC 12 headers
// trip a bogus -Wuninitialized once inlined.
typedef std::uint64_t U64x8 __attribute__((vector_size(64)));

// The AVX-512 wrappers' one body: 8 vectors of 8 lanes, lane l of vector v
// testing position 8v + l.  Only the low 16 bits of mix(z) = z2 ^ (z2 >> 31)
// decide a hit, and they read bits 0-46 of the second product z2, so with
// kIfma that multiply is vpmadd52luq: the low 52 bits of the product of the
// operands' low 52 bits, which are the low 52 bits of the 64-bit product.
// The first product feeds every bit of z2 and stays a full vpmullq.
// vpmadd52luq is written as inline asm: GCC will not inline the IFMA
// intrinsic into a body compiled for F/DQ, and only the IFMA wrapper, which
// the CPU test admits, takes that branch.
template <bool kIfma>
[[gnu::always_inline, gnu::target("avx512f,avx512dq")]] inline std::uint64_t
hit_mask_avx512_body(std::uint64_t state, std::uint32_t rate) {
  constexpr std::uint64_t kGamma = SplitMix64::kGamma;
  const U64x8 lanes = {1, 2, 3, 4, 5, 6, 7, 8};
  const __m512i limit = _mm512_set1_epi64(rate);
  U64x8 z = state + lanes * kGamma;
  std::uint64_t mask = 0;
  for (int v = 0; v < 8; ++v, z += 8 * kGamma) {
    U64x8 x = (z ^ (z >> 30)) * SplitMix64::kMul1;
    x ^= x >> 27;
    if constexpr (kIfma) {
      U64x8 lo = {};
      asm("vpmadd52luq %2, %1, %0"
          : "+v"(lo)
          : "v"(x), "v"(U64x8{} + SplitMix64::kMul2));
      x = lo;
    } else {
      x *= SplitMix64::kMul2;
    }
    x = (x ^ (x >> 31)) & (kProbOne - 1);
    mask |= static_cast<std::uint64_t>(_mm512_cmplt_epu64_mask(
                reinterpret_cast<__m512i>(x), limit))
            << (8 * v);
  }
  return mask;
}
#endif

// Chosen once per process by a plain CPU test, not an ifunc
// (target_clones): ifunc resolvers run during relocation, before the TSan
// runtime is initialised, and such a build crashes at start-up under TSan.
HitMaskFn select_hit_mask() {
#if defined(__x86_64__)
  if (detail::avx512_ifma_usable()) return detail::hit_mask_avx512_ifma;
  if (detail::avx512_usable()) return detail::hit_mask_avx512;
#endif
  return detail::hit_mask_base;
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

std::uint64_t hit_mask_base(std::uint64_t state, std::uint32_t rate) {
  // Scans to each hit with a branch, which predicts well at the usual low
  // rates; folding every position's compare into the mask costs more.
  std::uint64_t mask = 0;
  for (unsigned j = 0; j < 64; ++j) {
    state += SplitMix64::kGamma;
    while (SplitMix64::mix(state) % kProbOne >= rate) {
      if (++j == 64) return mask;
      state += SplitMix64::kGamma;
    }
    mask |= std::uint64_t{1} << j;
  }
  return mask;
}

#if defined(__x86_64__)
[[gnu::target("avx512f,avx512dq")]] std::uint64_t hit_mask_avx512(
    std::uint64_t state, std::uint32_t rate) {
  return hit_mask_avx512_body<false>(state, rate);
}

[[gnu::target("avx512f,avx512dq,avx512ifma")]] std::uint64_t
hit_mask_avx512_ifma(std::uint64_t state, std::uint32_t rate) {
  return hit_mask_avx512_body<true>(state, rate);
}
#endif

bool avx512_usable() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

bool avx512_ifma_usable() {
#if defined(__x86_64__)
  return avx512_usable() && __builtin_cpu_supports("avx512ifma");
#else
  return false;
#endif
}

ArrivalSchedule generate(const ArrivalConfig& cfg, std::uint64_t duration,
                         std::uint64_t seed, HitMaskFn hit_mask) {
  RVK_CHECK_MSG(!cfg.tier_weights.empty(), "arrival config needs >= 1 tier");
  std::uint64_t weight_total = 0;
  for (std::uint32_t w : cfg.tier_weights) weight_total += w;
  RVK_CHECK_MSG(weight_total > 0, "tier weights must not all be zero");
  if (cfg.kind == ArrivalKind::kBursty) {
    RVK_CHECK_MSG(cfg.burst_len > 0 && cfg.idle_len > 0,
                  "bursty sojourn means must be nonzero");
  }

  ArrivalSchedule out;
  out.duration = duration;
  // Draws `rng`'s next two positions: the arrival's tier, then its seed.
  auto emit = [&](std::uint64_t tick, SplitMix64& rng) {
    const std::uint32_t tier = pick_tier(cfg.tier_weights, weight_total, rng);
    out.arrivals.push_back({tick, tier, rng.next()});
  };
  if (cfg.kind == ArrivalKind::kPoisson) {
    // Sized past the expected count by about four standard deviations at
    // the benchmark's load, so the walk does not regrow the vector.
    const auto expected = static_cast<std::uint64_t>(
        static_cast<double>(duration) * offered_rate(cfg));
    out.arrivals.reserve(expected + expected / 16 + 64);
    // Stream position p is draw p + 1, mix(seed + (p + 1)·γ).  The per-tick
    // loop spends one position per tick and two more per arrival, so the
    // position tested at tick t is t + 2·(arrivals before it).  The walk
    // visits the hit bits of one 64-position window; an arrival also masks
    // off the two positions its tier and seed take, and a new window starts
    // wherever the walk leaves the old one.
    std::uint64_t window = 0;  // position of the mask's bit 0
    std::uint64_t skew = 0;    // positions - ticks: 2 per arrival
    while (window - skew < duration) {
      std::uint64_t mask =
          hit_mask(seed + window * SplitMix64::kGamma, cfg.rate);
      std::uint64_t next = window + 64;
      while (mask != 0) {
        const auto j = static_cast<unsigned>(__builtin_ctzll(mask));
        const std::uint64_t hit = window + j;
        if (hit - skew >= duration) return out;
        SplitMix64 rng(seed + (hit + 1) * SplitMix64::kGamma);
        emit(hit - skew, rng);
        skew += 2;
        if (j >= 61) {  // the seed draw ends the window or lies past it
          next = hit + 3;
          break;
        }
        mask &= ~(std::uint64_t{7} << j);
      }
      window = next;
    }
    return out;
  }
  // Start in the burst state: a sweep's first requests should meet traffic,
  // not a silent idle sojourn.
  SplitMix64 rng(seed);
  bool burst = true;
  for (std::uint64_t tick = 0; tick < duration; ++tick) {
    // Geometric sojourns: leave the current state with probability 1/mean
    // per tick, sampled BEFORE emitting so sojourn lengths and arrival draws
    // come from disjoint positions of the stream.
    const std::uint64_t stay = burst ? cfg.burst_len : cfg.idle_len;
    if (rng.next_below(stay) == 0) burst = !burst;
    const std::uint32_t rate = burst ? cfg.burst_rate : cfg.idle_rate;
    if (burst) ++out.burst_ticks;
    if (rng.next_below(kProbOne) < rate) emit(tick, rng);
  }
  return out;
}

}  // namespace detail

ArrivalSchedule generate(const ArrivalConfig& cfg, std::uint64_t duration,
                         std::uint64_t seed) {
  static const HitMaskFn hit_mask = select_hit_mask();
  return detail::generate(cfg, duration, seed, hit_mask);
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
