// Shared pieces of the repository benchmark: the timestamp clock, the
// per-OS-thread exclusive-time ledger, the traced/untraced call wrappers the
// workloads are templated on, and the per-rep result record.
//
// Attribution rule (README.md "Ledger"): the benchmark stamps a boundary
// crossing at every call it makes into a layer's public API and at every
// return from one.  Each OS thread keeps one ledger whose state is the
// activity opened by the last crossing; the wall interval up to the next
// crossing on that OS thread is charged to exactly that activity.  When the
// interval ends in a different green thread than it started in, it spans a
// context switch: it stays with the opening activity if that activity is a
// call that can switch (yield, sleep, section entry, ...), and is charged to
// `unattributed` otherwise (a switch the benchmark did not see coming).  The
// per-op calls (get, set, non-switching yield_point) are too cheap to stamp
// every time: they are timed on a random 1-in-64 sample and their estimated
// total, exact count times sampled mean, is moved from the section body's
// self time to the op's layer when the ledger closes.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "rt/scheduler.hpp"

namespace rvk::bench {

// Raw timestamp: the TSC where there is one (about half the cost of a
// steady_clock read), else steady_clock nanoseconds.  Ledger::close()
// converts to nanoseconds against steady_clock over the same interval.
inline std::uint64_t stamp() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : std::uint8_t {
  kRt,
  kHeap,
  kLog,
  kCore,
  kMonitor,
  kSvc,
  kBench,
  kUnattributed,
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
inline constexpr std::array<const char*, kLayers> kLayerNames = {
    "rt", "heap", "log", "core", "monitor", "svc", "bench", "unattributed"};

// What an OS thread is doing between two crossings.
enum class Act : std::uint8_t {
  kSched,       // rt: scheduler loop before the first crossing of a rep
  kBench,       // bench: bookkeeping after a unit returns (latency, spans)
  kInjector,    // svc: the open-loop injector walking its schedule
  kRequest,     // svc: request or worker code outside its section
  kBody,        // svc: a section body attempt
  kSpawn,       // rt: Scheduler::spawn
  kSleep,       // rt: Scheduler::sleep_for, until the next crossing
  kYield,       // rt: a yield_point predicted to switch threads
  kFinish,      // rt: green-thread exit up to the next thread's crossing
  kRemote,      // rt: DomainSet::remote_call (mailbox round trip)
  kEnter,       // core: section entry up to the first body attempt
  kCommit,      // core: body return up to section return
  kRollback,    // core: body unwound by revocation, up to the next attempt
  kMonEnter,    // monitor: BlockingMonitor::try_enter
  kMonRelease,  // monitor: BlockingMonitor::release
  kUnattributed,
  kCount
};
inline constexpr std::size_t kActs = static_cast<std::size_t>(Act::kCount);

inline constexpr Layer layer_of(Act a) {
  switch (a) {
    case Act::kSched:
    case Act::kSpawn:
    case Act::kSleep:
    case Act::kYield:
    case Act::kFinish:
    case Act::kRemote: return Layer::kRt;
    case Act::kEnter:
    case Act::kCommit:
    case Act::kRollback: return Layer::kCore;
    case Act::kMonEnter:
    case Act::kMonRelease: return Layer::kMonitor;
    case Act::kInjector:
    case Act::kRequest:
    case Act::kBody: return Layer::kSvc;
    case Act::kBench: return Layer::kBench;
    case Act::kUnattributed:
    case Act::kCount: break;
  }
  return Layer::kUnattributed;
}

// Calls during which the scheduler may run other green threads.
inline constexpr bool may_switch(Act a) {
  switch (a) {
    case Act::kSched:
    case Act::kSleep:
    case Act::kYield:
    case Act::kFinish:
    case Act::kRemote:
    case Act::kEnter:
    case Act::kRollback:
    case Act::kMonEnter: return true;
    default: return false;
  }
}

// Per-green-thread state the traced wrappers need: which thread it is (the
// ledger's switch test) and how many yield points it ran since its last
// dispatch (the switch predictor: the scheduler switches on the quantum-th
// yield after a dispatch, SchedulerConfig::quantum).
struct Fiber {
  explicit Fiber(rt::Scheduler& s)
      : sched(&s), vt(s.current_thread()), seen(s.dispatches()) {}
  rt::Scheduler* sched;
  const rt::VThread* vt;
  std::uint64_t seen;        // sched->dispatches() when last observed
  std::uint32_t since = 0;   // yields since this thread's last dispatch

  // Notes a dispatch that happened since the last look (this thread was
  // switched out and back in, so its quantum restarted).
  bool observe() {
    const std::uint64_t d = sched->dispatches();
    if (d == seen) return false;
    seen = d;
    since = 0;
    return true;
  }
};

// Picks about one call in 64, at spacings drawn uniformly from [1, 127] by
// a private xorshift stream so sampling cannot alias with a loop's op
// pattern.  The countdown doubles as the exact call counter (calls so far =
// spacings issued - countdown left), so the fast path is one decrement.
class Sampler {
 public:
  bool tick() {
    if (--left_ != 0) return false;
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    left_ = 1 + static_cast<std::uint32_t>(s_ % 127);
    issued_ += left_;
    return true;
  }
  std::uint64_t calls() const { return issued_ - left_; }

 private:
  std::uint64_t s_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t issued_ = 1;
  std::uint32_t left_ = 1;
};

// One finished unit of work (a request or a section) in the traced rep,
// kept in memory for the Chrome trace.  Stamps are raw ledger stamps; the
// untraced wrappers leave them 0.
struct Span {
  std::uint32_t id = 0;
  std::uint8_t cls = 0;  // tier / priority class index, 0 = highest
  std::uint8_t shard = 0;
  std::uint16_t attempts = 0;
  std::uint64_t latency_ticks = 0;
  std::uint64_t spawn = 0, first_run = 0, call = 0, body_start = 0,
                body_end = 0, ret = 0;
};

struct OpSample {
  std::uint64_t count = 0;     // exact calls
  std::uint64_t sampled = 0;   // timed calls
  std::uint64_t cycles = 0;    // summed timed durations (raw stamps)
};

// Untraced wrappers: plain calls, everything else compiles away.
struct NoTrace {
  static constexpr bool kOn = false;
  std::uint64_t call(Act, Fiber&) { return 0; }
  std::uint64_t back(Act, Fiber&) { return 0; }
  template <class Arr>
  auto get(Arr& a, std::size_t i) {
    return a.get(i);
  }
  template <class Arr, class V>
  void set(Arr& a, std::size_t i, V v) {
    a.set(i, v);
  }
  void yield(Fiber& f, Act) { f.sched->yield_point(); }
  struct BodyScope {
    BodyScope(NoTrace&, Fiber&, Span*) {}
  };
};

// The ledger of one OS thread plus its sampled per-op timers.
class Ledger {
 public:
  static constexpr bool kOn = true;

  explicit Ledger(int quantum) : quantum_(static_cast<std::uint32_t>(quantum)) {}

  void open();    // starts the window in Act::kSched
  void close();   // ends the window; converts and folds sampled ops

  // Crossing into a call (counted) or back into caller code (not counted).
  // Returns the crossing's stamp.
  std::uint64_t call(Act a, Fiber& f) { return cross(a, f, true); }
  std::uint64_t back(Act a, Fiber& f) { return cross(a, f, false); }

  template <class Arr>
  auto get(Arr& a, std::size_t i) {
    if (!get_sampler_.tick()) return a.get(i);
    const std::uint64_t t0 = stamp();
    auto v = a.get(i);
    get_.cycles += stamp() - t0;
    ++get_.sampled;
    return v;
  }

  template <class Arr, class V>
  void set(Arr& a, std::size_t i, V v) {
    if (!set_sampler_.tick()) {
      a.set(i, v);
      return;
    }
    const std::uint64_t t0 = stamp();
    a.set(i, v);
    set_.cycles += stamp() - t0;
    ++set_.sampled;
  }

  // yield_point from caller activity `caller`.  The scheduler switches only
  // on the quantum-th yield after a dispatch, and every dispatch happens
  // inside a call the benchmark stamps (whose crossing resets `since`), so
  // a yield predicted to switch is stamped as a call and the rest are
  // sampled like the other per-op calls.  The prediction is exact unless
  // the library yields internally; a missed switch shows up as
  // `unattributed` time.
  void yield(Fiber& f, Act caller) {
    if (++f.since >= quantum_) [[unlikely]] {
      switching_yield(f, caller);
    } else if (yield_sampler_.tick()) [[unlikely]] {
      sampled_yield(f);
    } else {
      f.sched->yield_point();
    }
  }

  // Marks one section body attempt: crossing into kBody on entry; on exit,
  // into kCommit, or into kRollback when a revocation unwinds the body.
  // Records the first attempt's start and the last attempt's end in `span`.
  struct BodyScope {
    BodyScope(Ledger& l, Fiber& f, Span* span)
        : l_(l), f_(f), span_(span), uncaught_(std::uncaught_exceptions()) {
      const std::uint64_t s = l_.call(Act::kBody, f_);
      if (span_ != nullptr && span_->attempts++ == 0) span_->body_start = s;
    }
    ~BodyScope() {
      const std::uint64_t e = std::uncaught_exceptions() > uncaught_
                                  ? l_.call(Act::kRollback, f_)
                                  : l_.back(Act::kCommit, f_);
      if (span_ != nullptr) span_->body_end = e;
    }
    BodyScope(const BodyScope&) = delete;
    BodyScope& operator=(const BodyScope&) = delete;

   private:
    Ledger& l_;
    Fiber& f_;
    Span* span_;
    int uncaught_;
  };

  // ---- Results (valid after close()) ----
  double ns_per_stamp() const { return ns_per_stamp_; }
  double wall_ns() const { return static_cast<double>(total_) * ns_per_stamp_; }
  double act_ns(Act a) const {
    return static_cast<double>(self_[static_cast<std::size_t>(a)]) *
           ns_per_stamp_;
  }
  std::uint64_t act_count(Act a) const {
    return count_[static_cast<std::size_t>(a)];
  }
  double layer_ns(Layer l) const {
    return static_cast<double>(layer_[static_cast<std::size_t>(l)]) *
           ns_per_stamp_;
  }
  // Mean sampled cost of one call, empty-pair cost subtracted, in ns.
  double op_ns(const OpSample& s) const;
  const OpSample& gets() const { return get_; }
  const OpSample& sets() const { return set_; }
  const OpSample& plain_yields() const { return yield_; }
  // Conservation: the layer totals add up to the window exactly.
  bool conserved() const;

  // Splits every in-section write into `plain_ns` of heap work and the rest
  // as undo-log append (the caller measured plain_ns out of any section);
  // must be called before close().  0 leaves writes entirely in heap.
  void set_logged_writes(double plain_ns) { plain_write_ns_ = plain_ns; }

 private:
  void switching_yield(Fiber& f, Act caller);
  void sampled_yield(Fiber& f);

  std::uint64_t cross(Act next, Fiber& f, bool count) {
    const std::uint64_t now = stamp();
    Act a = cur_;
    if (f.vt != last_vt_ && !may_switch(a)) a = Act::kUnattributed;
    self_[static_cast<std::size_t>(a)] += now - last_;
    last_ = now;
    cur_ = next;
    last_vt_ = f.vt;
    if (count) ++count_[static_cast<std::size_t>(next)];
    f.observe();
    return now;
  }

  std::uint32_t quantum_;
  Act cur_ = Act::kSched;
  const rt::VThread* last_vt_ = nullptr;
  std::uint64_t last_ = 0;
  std::uint64_t start_ = 0;
  std::uint64_t total_ = 0;
  double wall_start_ = 0.0;
  double ns_per_stamp_ = 1.0;
  double pair_ = 0.0;  // empty timed pair, raw stamps
  double plain_write_ns_ = 0.0;
  std::array<std::uint64_t, kActs> self_{};
  std::array<std::uint64_t, kActs> count_{};
  std::array<std::uint64_t, kLayers> layer_{};
  OpSample get_, set_, yield_;
  Sampler get_sampler_, set_sampler_, yield_sampler_;
  std::uint64_t unpredicted_ = 0;  // sampled yields that switched anyway
};

// Everything one rep reports.  Tick figures are deterministic for a fixed
// sub-seed on the single-thread workloads; wall figures are not.
struct RepOut {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t sections = 0;  // committed sections
  std::uint64_t offered = 0;   // units attempted
  std::uint64_t failed = 0;    // gave up or shed
  std::vector<std::uint64_t> hi_ticks, lo_ticks;  // completion latencies
  std::vector<double> hi_wall_us;
  std::uint64_t digest = 0;  // hash of every tick-level outcome
  std::vector<std::pair<std::string, double>> extra;  // per-rep raw values
  std::string error;  // non-empty: an output check failed
};

// Order-sensitive fold for determinism digests.
inline void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
}

// Exact nearest-rank percentile at `per_mille`/1000 (990 = p99); the value
// type's zero for an empty set.
template <class T>
T nearest_rank(std::vector<T> v, std::uint64_t per_mille) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  std::uint64_t rank = (per_mille * v.size() + 999) / 1000;
  rank = std::clamp<std::uint64_t>(rank, 1, v.size());
  return v[rank - 1];
}

}  // namespace rvk::bench
