#include "svc/arrivals.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <array>
#include <bit>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace rvk::svc {

namespace {

using detail::HitBlockFn;
using detail::kBlockWords;

constexpr std::uint64_t kGamma = SplitMix64::kGamma;
constexpr std::uint64_t kBlockPositions = 64 * kBlockWords;
// Each arrival takes its hit and the next two positions, so a block holds
// at most a third of its positions' worth of arrivals; the walk also writes
// one slot past the last arrival it keeps.
constexpr std::size_t kMaxBlockArrivals = kBlockPositions / 3 + 2;

#if defined(__x86_64__)
// Eight 64-bit lanes.  The body's arithmetic is written on this GCC vector
// type rather than with _mm512_srli_epi64 and friends, whose GCC 12 headers
// trip a bogus -Wuninitialized once inlined.
typedef std::uint64_t U64x8 __attribute__((vector_size(64)));

// The AVX-512 wrappers' one body: 8 vectors of 8 lanes per word, lane l of
// vector v testing the word's position 8v + l.  Only the low 16 bits of
// mix(z) = z2 ^ (z2 >> 31) decide a hit, and they read bits 0-46 of the
// second product z2, so with kIfma that multiply is vpmadd52luq: the low 52
// bits of the product of the operands' low 52 bits, which are the low 52
// bits of the 64-bit product.  The first product feeds every bit of z2 and
// stays a full vpmullq.  vpmadd52luq is written as inline asm: GCC will not
// inline the IFMA intrinsic into a body compiled for F/DQ, and only the IFMA
// wrapper, which the CPU test admits, takes that branch.
template <bool kIfma>
[[gnu::always_inline, gnu::target("avx512f,avx512dq")]] inline void
hit_block_avx512_body(std::uint64_t state, std::uint32_t rate,
                      std::span<std::uint64_t> words) {
  const U64x8 lanes = {1, 2, 3, 4, 5, 6, 7, 8};
  const __m512i limit = _mm512_set1_epi64(rate);
  U64x8 z = state + lanes * kGamma;
  for (std::uint64_t& word : words) {
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
    word = mask;
  }
}
#endif

// Chosen once per process by a plain CPU test, not an ifunc
// (target_clones): ifunc resolvers run during relocation, before the TSan
// runtime is initialised, and such a build crashes at start-up under TSan.
HitBlockFn select_hit_block() {
#if defined(__x86_64__)
  if (detail::avx512_ifma_usable()) return detail::hit_block_avx512_ifma;
  if (detail::avx512_usable()) return detail::hit_block_avx512;
#endif
  return detail::hit_block_base;
}

// Turns a block's hit words into the stream positions of its arrivals,
// `block_pos` being the position of word 0's bit 0.  An arrival takes the
// two positions after its hit for its tier and seed draws, so a hit there
// is no arrival; `carry` holds the bits of the next word that the previous
// word's last arrival takes (bit 0 after a hit at 62, bits 0-1 after one at
// 63), across block edges too.  A word with at most one hit, which is most
// of them at the usual rates, costs a ctz and a conditional add: its slot
// is written whether or not it holds an arrival.  Returns the count.
std::size_t walk_block(const std::array<std::uint64_t, kBlockWords>& block,
                       std::uint64_t block_pos, std::uint64_t& carry,
                       std::array<std::uint64_t, kMaxBlockArrivals>& pos) {
  std::size_t n = 0;
  for (std::size_t w = 0; w < kBlockWords; ++w) {
    const std::uint64_t word_pos = block_pos + 64 * w;
    std::uint64_t taken = block[w] & ~carry;
    if ((taken & (taken - 1)) != 0) [[unlikely]] {
      std::uint64_t left = taken;
      taken = 0;
      do {
        const std::uint64_t bit = left & -left;
        pos[n++] = word_pos + static_cast<unsigned>(std::countr_zero(left));
        taken |= bit;
        left &= ~(bit * 7);  // the hit and its two draws
      } while (left != 0);
    } else {
      pos[n] = word_pos + static_cast<unsigned>(std::countr_zero(taken));
      n += taken != 0;
    }
    // At most one of bits 62 and 63 is taken.
    carry = (taken >> 62) | (taken >> 63);
  }
  return n;
}

}  // namespace

namespace detail {

void hit_block_base(std::uint64_t state, std::uint32_t rate,
                    std::span<std::uint64_t> words) {
  // Sets each hit's bit behind a branch, which predicts well at the usual
  // low rates; folding every position's compare into the mask costs more.
  std::ranges::fill(words, 0);
  for (std::size_t p = 0; p < 64 * words.size(); ++p) {
    state += kGamma;
    if (SplitMix64::mix(state) % kProbOne < rate) {
      words[p / 64] |= std::uint64_t{1} << (p % 64);
    }
  }
}

#if defined(__x86_64__)
[[gnu::target("avx512f,avx512dq")]] void hit_block_avx512(
    std::uint64_t state, std::uint32_t rate, std::span<std::uint64_t> words) {
  hit_block_avx512_body<false>(state, rate, words);
}

[[gnu::target("avx512f,avx512dq,avx512ifma")]] void hit_block_avx512_ifma(
    std::uint64_t state, std::uint32_t rate, std::span<std::uint64_t> words) {
  hit_block_avx512_body<true>(state, rate, words);
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
                         std::uint64_t seed, HitBlockFn hit_block) {
  RVK_CHECK_MSG(!cfg.tier_weights.empty(), "arrival config needs >= 1 tier");
  // Tier t owns the draws in [cum[t-1], cum[t]), so an arrival's tier is
  // the count of cumulative weights at or below its draw.
  std::vector<std::uint64_t> cum;
  std::uint64_t weight_total = 0;
  for (std::uint32_t w : cfg.tier_weights) cum.push_back(weight_total += w);
  RVK_CHECK_MSG(weight_total > 0, "tier weights must not all be zero");
  auto tier_of = [&cum, weight_total](std::uint64_t draw) {
    const std::uint64_t r = draw % weight_total;
    std::uint32_t tier = 0;
    for (std::uint64_t c : cum) tier += r >= c;
    return tier;
  };
  if (cfg.kind == ArrivalKind::kBursty) {
    RVK_CHECK_MSG(cfg.burst_len > 0 && cfg.idle_len > 0,
                  "bursty sojourn means must be nonzero");
  }

  ArrivalSchedule out;
  out.duration = duration;
  if (cfg.kind == ArrivalKind::kPoisson) {
    // Sized past the expected count by about four standard deviations at
    // the benchmark's load, so the walk does not regrow the vector.
    const auto expected = static_cast<std::uint64_t>(
        static_cast<double>(duration) * offered_rate(cfg));
    out.arrivals.reserve(expected + expected / 16 + 64);
    // Stream position p is draw p + 1, mix(seed + (p + 1)·γ).  The per-tick
    // loop spends one position per tick and two more per arrival, on its
    // tier and seed, so the position tested at tick t is t + 2·(arrivals
    // before it).  Each block is filled, walked and emitted in turn.
    std::array<std::uint64_t, kBlockWords> block{};
    std::array<std::uint64_t, kMaxBlockArrivals> pos{};
    std::uint64_t carry = 0;
    for (std::uint64_t block_pos = 0;
         block_pos - 2 * out.arrivals.size() < duration;
         block_pos += kBlockPositions) {
      hit_block(seed + block_pos * kGamma, cfg.rate, block);
      const std::size_t n = walk_block(block, block_pos, carry, pos);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t tick = pos[i] - 2 * out.arrivals.size();
        if (tick >= duration) return out;
        const std::uint64_t draws = seed + (pos[i] + 1) * kGamma;
        out.arrivals.push_back({tick,
                                tier_of(SplitMix64::mix(draws + kGamma)),
                                SplitMix64::mix(draws + 2 * kGamma)});
      }
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
    if (rng.next_below(kProbOne) < rate) {
      const std::uint32_t tier = tier_of(rng.next());
      out.arrivals.push_back({tick, tier, rng.next()});
    }
  }
  return out;
}

}  // namespace detail

ArrivalSchedule generate(const ArrivalConfig& cfg, std::uint64_t duration,
                         std::uint64_t seed) {
  static const HitBlockFn hit_block = select_hit_block();
  return detail::generate(cfg, duration, seed, hit_block);
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
