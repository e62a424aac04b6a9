#include <cmath>
#include <numeric>

#include "heap/heap.hpp"
#include "workload.hpp"

namespace rvk::bench {

void Ledger::open() {
  // Cost of an empty timed pair, subtracted from every sampled op.
  constexpr int kPairs = 4096;
  std::uint64_t sum = 0;
  for (int i = 0; i < kPairs; ++i) {
    const std::uint64_t t0 = stamp();
    sum += stamp() - t0;
  }
  pair_ = static_cast<double>(sum) / kPairs;
  wall_start_ = wall_now();
  start_ = last_ = stamp();
  cur_ = Act::kSched;
  last_vt_ = nullptr;
}

void Ledger::close() {
  const std::uint64_t now = stamp();
  const double wall_end = wall_now();
  const Act a = may_switch(cur_) || last_vt_ == nullptr ? cur_
                                                         : Act::kUnattributed;
  self_[static_cast<std::size_t>(a)] += now - last_;
  last_ = now;
  total_ = now - start_;
  ns_per_stamp_ = total_ == 0 ? 1.0 : (wall_end - wall_start_) * 1e9 /
                                          static_cast<double>(total_);

  for (std::size_t i = 0; i < kActs; ++i) {
    layer_[static_cast<std::size_t>(layer_of(static_cast<Act>(i)))] +=
        self_[i];
  }
  get_.count = get_sampler_.calls();
  set_.count = set_sampler_.calls();
  yield_.count = yield_sampler_.calls() - unpredicted_;

  // Move the sampled per-op estimates out of the section bodies' self time.
  auto estimate = [&](const OpSample& s) -> double {
    if (s.sampled == 0) return 0.0;
    const double mean = static_cast<double>(s.cycles) /
                        static_cast<double>(s.sampled);
    return std::max(0.0, mean - pair_) * static_cast<double>(s.count);
  };
  double get_est = estimate(get_);
  double set_est = estimate(set_);
  double yield_est = estimate(yield_);
  const double body = static_cast<double>(self_[static_cast<std::size_t>(Act::kBody)]);
  const double want = get_est + set_est + yield_est;
  if (want > body && want > 0.0) {  // sampling noise on near-empty bodies
    get_est *= body / want;
    set_est *= body / want;
    yield_est *= body / want;
  }
  double set_heap = set_est;
  if (plain_write_ns_ > 0.0) {
    set_heap = std::min(set_est, plain_write_ns_ / ns_per_stamp_ *
                                     static_cast<double>(set_.count));
  }
  // Rounded down, so the moved total never exceeds the body time it leaves.
  const auto to_int = [](double v) {
    return static_cast<std::uint64_t>(std::floor(v));
  };
  const std::uint64_t heap = to_int(get_est) + to_int(set_heap);
  const std::uint64_t log = to_int(set_est - set_heap);
  const std::uint64_t rt = to_int(yield_est);
  layer_[static_cast<std::size_t>(Layer::kSvc)] -= heap + log + rt;
  layer_[static_cast<std::size_t>(Layer::kHeap)] += heap;
  layer_[static_cast<std::size_t>(Layer::kLog)] += log;
  layer_[static_cast<std::size_t>(Layer::kRt)] += rt;
}

void Ledger::switching_yield(Fiber& f, Act caller) {
  call(Act::kYield, f);
  f.sched->yield_point();  // a revocation thrown here is charged by BodyScope
  back(caller, f);
}

void Ledger::sampled_yield(Fiber& f) {
  const std::uint64_t t0 = stamp();
  f.sched->yield_point();
  const std::uint64_t dt = stamp() - t0;
  if (f.observe()) {
    ++unpredicted_;
  } else {
    yield_.cycles += dt;
    ++yield_.sampled;
  }
}

double Ledger::op_ns(const OpSample& s) const {
  if (s.sampled == 0) return 0.0;
  const double mean =
      static_cast<double>(s.cycles) / static_cast<double>(s.sampled);
  return std::max(0.0, mean - pair_) * ns_per_stamp_;
}

bool Ledger::conserved() const {
  const std::uint64_t sum =
      std::accumulate(layer_.begin(), layer_.end(), std::uint64_t{0});
  return total_ > 0 && sum == total_;
}

double calibrate_plain_write_ns() {
  heap::Heap h;
  heap::HeapArray<std::uint64_t>* arr = h.alloc_array<std::uint64_t>(64);
  constexpr std::uint64_t kWrites = 1 << 20;
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {  // best of 3: skip page faults
    const double t0 = wall_now();
    for (std::uint64_t i = 0; i < kWrites; ++i) arr->set(i & 63, i);
    const double ns = (wall_now() - t0) * 1e9 / static_cast<double>(kWrites);
    best = round == 0 ? ns : std::min(best, ns);
  }
  return best;
}

}  // namespace rvk::bench
