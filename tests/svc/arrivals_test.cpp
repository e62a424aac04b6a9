// Arrival generation: determinism, Poisson/MMPP statistics, tier mixing
// (DESIGN.md §15).  Every assertion is over a precomputed schedule — no
// scheduler involved, so nothing here can be timing-flaky.
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "svc/arrivals.hpp"

namespace rvk::svc {
namespace {

// FNV-1a over 64-bit words: every (tick, tier, seed), then the arrival count
// and burst_ticks.
std::uint64_t digest(const ArrivalSchedule& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto fold = [&h](std::uint64_t w) { h = (h ^ w) * 0x100000001B3ULL; };
  for (const Arrival& a : s.arrivals) {
    fold(a.tick);
    fold(a.tier);
    fold(a.seed);
  }
  fold(s.arrivals.size());
  fold(s.burst_ticks);
  return h;
}

// The Poisson kernels this CPU can run, base first: generate() uses the last.
std::vector<std::pair<const char*, detail::HitMaskFn>> usable_kernels() {
  std::vector<std::pair<const char*, detail::HitMaskFn>> k = {
      {"base", detail::hit_mask_base}};
#if defined(__x86_64__)
  if (detail::avx512_usable()) {
    k.emplace_back("avx512", detail::hit_mask_avx512);
  }
  if (detail::avx512_ifma_usable()) {
    k.emplace_back("avx512_ifma", detail::hit_mask_avx512_ifma);
  }
#endif
  return k;
}

// Pinned schedules: every (config, duration) must keep the digest a
// one-draw-per-tick loop produces, so testing draws 64 at a time can never
// move an arrival, tier or request seed, whichever kernel runs.  Durations
// straddle 32- and 64-draw windows; the rates cover never, almost never,
// the benchmark's rho=50 point, the default, and the saturated edges around
// kProbOne.
TEST(ArrivalsTest, GoldenScheduleDigests) {
  constexpr std::array<std::uint64_t, 6> kDurations = {0,  1,  31,
                                                       32, 33, 250'000};
  constexpr std::array<std::uint32_t, 7> kRates = {
      0, 1, 372, kProbOne / 64, kProbOne - 1, kProbOne, kProbOne + 1};
  std::vector<ArrivalConfig> configs;
  for (std::uint32_t rate : kRates) {
    ArrivalConfig cfg;
    cfg.rate = rate;
    cfg.tier_weights = {2, 3, 5};
    configs.push_back(cfg);
  }
  ArrivalConfig bursty;
  bursty.kind = ArrivalKind::kBursty;
  bursty.burst_rate = kProbOne / 8;
  bursty.idle_rate = kProbOne / 256;
  bursty.burst_len = 64;
  bursty.idle_len = 192;
  bursty.tier_weights = {2, 3, 5};
  configs.push_back(bursty);

  // Taken from the one-draw-per-tick loop; config rows, duration columns.
  constexpr std::uint64_t kGolden[8][6] = {
      {0x08328807B4EB6FEDULL, 0x08328807B4EB6FEDULL, 0x08328807B4EB6FEDULL,
       0x08328807B4EB6FEDULL, 0x08328807B4EB6FEDULL, 0x08328807B4EB6FEDULL},
      {0x08328807B4EB6FEDULL, 0x08328807B4EB6FEDULL, 0x08328807B4EB6FEDULL,
       0x08328807B4EB6FEDULL, 0x08328807B4EB6FEDULL, 0x88741AF279799563ULL},
      {0x08328807B4EB6FEDULL, 0x08328807B4EB6FEDULL, 0x2FC35E3ABD000D46ULL,
       0x2FC35E3ABD000D46ULL, 0x2FC35E3ABD000D46ULL, 0xC107F512F69964DAULL},
      {0x08328807B4EB6FEDULL, 0x08328807B4EB6FEDULL, 0x0CD734B404AA0E36ULL,
       0x0CD734B404AA0E36ULL, 0x0CD734B404AA0E36ULL, 0xBD75C20FBEC357AAULL},
      {0x08328807B4EB6FEDULL, 0x1D7E80D3B9A93B7CULL, 0xF4394C459CC22E2CULL,
       0x067A294327312820ULL, 0x30AE81ED70F07E65ULL, 0x3C3E35D9B7019BBAULL},
      {0x08328807B4EB6FEDULL, 0xA0A1814212F336E2ULL, 0x6A5F56B748A852D3ULL,
       0x52111CB9F59DBC88ULL, 0x1D39F85EE78ED149ULL, 0x39599C9CFB1899C6ULL},
      {0x08328807B4EB6FEDULL, 0x7B4920FE8E1FBFF6ULL, 0xB392B8C39C9E694FULL,
       0x533ADC25EA317A5EULL, 0xCDDC7D34CF5E11ACULL, 0xF1F849B576BB7978ULL},
      {0x08328807B4EB6FEDULL, 0x08328707B4EB6E3AULL, 0x1F1D2DD232EC86F2ULL,
       0xC05CB1FD3EF0F197ULL, 0xC05CB0FD3EF0EFE4ULL, 0xFAD66CE63499F72CULL},
  };
  for (std::size_t c = 0; c < configs.size(); ++c) {
    for (std::size_t d = 0; d < kDurations.size(); ++d) {
      EXPECT_EQ(digest(generate(configs[c], kDurations[d], 0x5EED0000 + c)),
                kGolden[c][d])
          << "config " << c << " duration " << kDurations[d];
      for (const auto& [name, kernel] : usable_kernels()) {
        EXPECT_EQ(digest(detail::generate(configs[c], kDurations[d],
                                          0x5EED0000 + c, kernel)),
                  kGolden[c][d])
            << name << " config " << c << " duration " << kDurations[d];
      }
    }
  }
}

// The kernel contract, spelled as the one-draw-per-tick loop.
std::uint64_t scalar_hit_mask(std::uint64_t state, std::uint32_t rate) {
  SplitMix64 rng(state);
  std::uint64_t mask = 0;
  for (unsigned j = 0; j < 64; ++j) {
    if (rng.next_below(kProbOne) < rate) mask |= std::uint64_t{1} << j;
  }
  return mask;
}

// 2,000 seeded (rate, state) pairs: rates log-uniform over [0, kProbOne),
// every fifth one an edge (never, almost never, the saturated edges around
// kProbOne), states anywhere.
void expect_matches_scalar(detail::HitMaskFn kernel) {
  constexpr std::array<std::uint32_t, 5> kEdgeRates = {
      0, 1, kProbOne - 1, kProbOne, kProbOne + 1};
  SplitMix64 pick(2004);
  for (int i = 0; i < 2000; ++i) {
    const auto rate =
        i % 5 == 0 ? kEdgeRates[pick.next_below(kEdgeRates.size())]
                   : static_cast<std::uint32_t>(
                         pick.next_below(kProbOne >> pick.next_below(16)));
    const std::uint64_t state = pick.next();
    ASSERT_EQ(kernel(state, rate), scalar_hit_mask(state, rate))
        << "rate " << rate << " state " << state;
  }
}

TEST(ArrivalsTest, BaseKernelMatchesScalarLoop) {
  expect_matches_scalar(detail::hit_mask_base);
}

TEST(ArrivalsTest, Avx512KernelMatchesScalarLoop) {
#if defined(__x86_64__)
  if (!detail::avx512_usable()) GTEST_SKIP() << "CPU lacks AVX-512 F/DQ";
  expect_matches_scalar(detail::hit_mask_avx512);
#else
  GTEST_SKIP() << "the AVX-512 kernels exist on x86-64 only";
#endif
}

TEST(ArrivalsTest, Avx512IfmaKernelMatchesScalarLoop) {
#if defined(__x86_64__)
  if (!detail::avx512_ifma_usable()) {
    GTEST_SKIP() << "CPU lacks AVX-512 F/DQ/IFMA";
  }
  expect_matches_scalar(detail::hit_mask_avx512_ifma);
#else
  GTEST_SKIP() << "the AVX-512 kernels exist on x86-64 only";
#endif
}

// The per-tick loop itself, for schedules the golden digests do not cover.
ArrivalSchedule scalar_generate(std::uint32_t rate, std::uint64_t duration,
                                std::uint64_t seed) {
  SplitMix64 rng(seed);
  ArrivalSchedule out;
  out.duration = duration;
  for (std::uint64_t tick = 0; tick < duration; ++tick) {
    if (rng.next_below(kProbOne) < rate) {
      rng.next();  // the tier draw: one tier, so always tier 0
      out.arrivals.push_back({tick, 0, rng.next()});
    }
  }
  return out;
}

// A hit at window position 62 or 63 draws its tier and seed from the
// window's end and the next window, and the walk must resume after them.
// Seeds are searched until the first window's first hit is there and both
// of its draws would pass the arrival test, so reading either as a tick
// adds an arrival.
TEST(ArrivalsTest, HitAtWindowEndDrawsIntoNextWindow) {
  constexpr std::uint32_t kRate = kProbOne / 16;
  auto hit_at = [](std::uint64_t seed, std::uint64_t pos) {
    return SplitMix64::mix(seed + (pos + 1) * SplitMix64::kGamma) % kProbOne <
           kRate;
  };
  ArrivalConfig cfg;
  cfg.rate = kRate;
  for (const unsigned last : {62u, 63u}) {
    const std::uint64_t first_window = (std::uint64_t{2} << last) - 1;
    std::uint64_t seed = 0;
    while ((scalar_hit_mask(seed, kRate) & first_window) !=
               std::uint64_t{1} << last ||
           !hit_at(seed, last + 1) || !hit_at(seed, last + 2)) {
      ++seed;
    }
    const ArrivalSchedule want = scalar_generate(kRate, 512, seed);
    ASSERT_GE(want.arrivals.size(), 2u);
    ASSERT_EQ(want.arrivals[0].tick, last);
    for (const auto& [name, kernel] : usable_kernels()) {
      EXPECT_TRUE(detail::generate(cfg, 512, seed, kernel).arrivals ==
                  want.arrivals)
          << name << " hit at " << last << " seed " << seed;
    }
  }
}

TEST(ArrivalsTest, SameSeedIsByteIdentical) {
  ArrivalConfig cfg;
  cfg.rate = kProbOne / 32;
  cfg.tier_weights = {2, 3, 5};
  const ArrivalSchedule a = generate(cfg, 1 << 16, 42);
  const ArrivalSchedule b = generate(cfg, 1 << 16, 42);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  // Arrival defines operator== over (tick, tier, seed): the whole schedule
  // must replay exactly, per-request RNG streams included.
  EXPECT_TRUE(a.arrivals == b.arrivals);

  const ArrivalSchedule c = generate(cfg, 1 << 16, 43);
  EXPECT_FALSE(a.arrivals == c.arrivals);
}

TEST(ArrivalsTest, TicksAreSortedAndInRange) {
  ArrivalConfig cfg;
  cfg.rate = kProbOne / 8;
  const ArrivalSchedule s = generate(cfg, 4096, 7);
  ASSERT_FALSE(s.arrivals.empty());
  std::uint64_t prev = 0;
  for (const Arrival& a : s.arrivals) {
    EXPECT_GE(a.tick, prev);
    EXPECT_LT(a.tick, s.duration);
    prev = a.tick;
  }
}

TEST(ArrivalsTest, PoissonMeanWithinTolerance) {
  ArrivalConfig cfg;
  cfg.rate = kProbOne / 64;  // mean gap 64 ticks
  const std::uint64_t duration = 1 << 20;
  const ArrivalSchedule s = generate(cfg, duration, 42);
  const double expected = static_cast<double>(duration) / 64.0;  // 16384
  // Binomial sd is ~127 here; 3% (~491) is nearly 4 sigma, and the seed is
  // fixed so this is a regression pin, not a statistical gamble.
  EXPECT_NEAR(static_cast<double>(s.arrivals.size()), expected,
              expected * 0.03);
  EXPECT_EQ(s.burst_ticks, 0u);  // Poisson runs have no burst state
}

TEST(ArrivalsTest, TierMixFollowsWeights) {
  ArrivalConfig cfg;
  cfg.rate = kProbOne / 16;
  cfg.tier_weights = {1, 1, 2};  // tier 2 gets half the traffic
  const ArrivalSchedule s = generate(cfg, 1 << 18, 11);
  std::uint64_t counts[3] = {0, 0, 0};
  for (const Arrival& a : s.arrivals) {
    ASSERT_LT(a.tier, 3u);
    ++counts[a.tier];
  }
  const double total = static_cast<double>(s.arrivals.size());
  EXPECT_NEAR(static_cast<double>(counts[0]) / total, 0.25, 0.03);
  EXPECT_NEAR(static_cast<double>(counts[1]) / total, 0.25, 0.03);
  EXPECT_NEAR(static_cast<double>(counts[2]) / total, 0.50, 0.03);
}

TEST(ArrivalsTest, BurstyDutyCycleMatchesSojourns) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kBursty;
  cfg.burst_rate = kProbOne / 8;
  cfg.idle_rate = 0;
  cfg.burst_len = 512;
  cfg.idle_len = 512;
  const std::uint64_t duration = 1 << 18;
  const ArrivalSchedule s = generate(cfg, duration, 42);
  // Equal sojourn means => long-run duty cycle 1/2.
  const double duty =
      static_cast<double>(s.burst_ticks) / static_cast<double>(duration);
  EXPECT_NEAR(duty, 0.5, 0.05);
  // idle_rate = 0: every arrival must have been emitted in the burst state,
  // so the realized rate over the whole window is ~duty * burst_rate.
  const double realized =
      static_cast<double>(s.arrivals.size()) / static_cast<double>(duration);
  EXPECT_NEAR(realized, 0.5 / 8.0, 0.01);
}

TEST(ArrivalsTest, OfferedRateFormulas) {
  ArrivalConfig p;
  p.rate = kProbOne / 4;
  EXPECT_DOUBLE_EQ(offered_rate(p), 0.25);

  ArrivalConfig b;
  b.kind = ArrivalKind::kBursty;
  b.burst_rate = kProbOne / 2;
  b.idle_rate = 0;
  b.burst_len = 100;
  b.idle_len = 300;  // duty 1/4 => mean rate 1/8
  EXPECT_DOUBLE_EQ(offered_rate(b), 0.125);
}

}  // namespace
}  // namespace rvk::svc
