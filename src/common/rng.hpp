// Deterministic pseudo-random number generation for workloads and schedules.
//
// The paper's micro-benchmark inserts "a short random pause … right before an
// entry to the synchronized section, to ensure random arrival of threads at
// the monitors" (§4.1).  All randomness in this repository flows through
// SplitMix64 instances seeded explicitly, so every experiment is replayable
// from its seed.
#pragma once

#include <cstdint>

namespace rvk {

// SplitMix64: tiny, fast, statistically solid for workload shuffling.
class SplitMix64 {
 public:
  // The state advances by kGamma per draw and each draw is mix(state), so
  // draw k of a stream seeded with s is mix(s + k * kGamma): any position
  // of the stream can be computed without the ones before it.
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  // The finalizer's two multipliers.
  static constexpr std::uint64_t kMul1 = 0xBF58476D1CE4E5B9ULL;
  static constexpr std::uint64_t kMul2 = 0x94D049BB133111EBULL;

  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * kMul1;
    z = (z ^ (z >> 27)) * kMul2;
    return z ^ (z >> 31);
  }

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() { return mix(state_ += kGamma); }

  // Uniform in [0, bound). bound must be nonzero.
  std::uint64_t next_below(std::uint64_t bound) { return next() % bound; }

  // Uniform in [lo, hi] inclusive.
  std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next_below(hi - lo + 1);
  }

  // True with probability pct/100.
  bool next_percent(unsigned pct) { return next_below(100) < pct; }

 private:
  std::uint64_t state_;
};

}  // namespace rvk
