// Thin locks — now a thin adapter over the compact lock-word layer
// (lock_word.hpp + monitor_table.hpp, DESIGN.md §13).
//
// The common case — an uncontended, shallowly recursive lock — is a single
// LockWord: thin states touch only that word, and a release parks the word
// in the *biased* state so the same thread's next acquire is one load+one
// compare (the Jikes-style fast path the engine's §11 biased sections are
// benchmarked against).  The lock *inflates* to a heavy MonitorBase slot in
// the process-wide MonitorTable on first contention, recursion-count
// overflow, or Object.wait — and, unlike the pre-§13 design, *deflates*
// back to a biased word when the fat monitor goes quiescent, so monitor
// memory tracks contention, not lock count.
//
// On this green-thread substrate the transitions need no atomics (context
// switches happen only at yield points, and none occur inside these
// methods); the ENCODING is kept faithful because it is what makes the
// paper's "deposits its priority in the header of the monitor object" (§4)
// protocol interesting: the deposit only exists once the lock is heavy,
// which is exactly the only time contention decisions are made.
//
// ThinLock is a monitor/ substrate feature used by baselines and
// micro-benchmarks; the revocation engine locks heap objects through the
// same LockWord/MonitorTable layer (Engine::monitor_of inflates
// RevocableMonitors into it), so baselines and the revocation path are
// measured on one encoding (bench/micro_uncontended, bench/micro_lockword).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "monitor/lock_word.hpp"
#include "monitor/monitor_table.hpp"
#include "support/annotations.hpp"

namespace rvk::monitor {

struct ThinLockStats {
  std::uint64_t thin_acquires = 0;   // word-only acquisitions (incl. biased)
  std::uint64_t heavy_acquires = 0;  // acquisitions while inflated
  std::uint64_t inflations = 0;      // may exceed 1: deflation re-arms it
  std::uint64_t deflations = 0;      // quiescent slot returned to the word
  std::uint64_t re_inflations = 0;   // inflations after a deflation
  std::uint64_t inflation_by_contention = 0;
  std::uint64_t inflation_by_overflow = 0;
  std::uint64_t inflation_by_wait = 0;
};

class ThinLock {
 public:
  static constexpr std::uint32_t kMaxCount = LockWord::kMaxCount;

  explicit ThinLock(std::string name) : name_(std::move(name)) {}

  // Returns the table slot if still inflated (quiesce-or-detach).
  ~ThinLock() { release_inflated_slot(word_); }

  ThinLock(const ThinLock&) = delete;
  ThinLock& operator=(const ThinLock&) = delete;

  // enter() with no deadline.
  void acquire();

  // Abortable acquire (DESIGN.md §14): enter() with a deadline.  Every path
  // that cannot block — biased, free, thin-recursive — succeeds instantly
  // regardless of `ticks`; the heavy paths delegate to
  // MonitorBase::try_enter(ticks).  A pure tryLock (`ticks == 0`) against
  // another thread's thin word fails WITHOUT inflating.  Returns true iff
  // the lock was taken.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC bool try_acquire(
      std::uint64_t ticks);

  // Releases one level; a full release of an inflated lock opportunistically
  // deflates the slot when quiescent — strictly AFTER the inner
  // MonitorBase::release() forbidden region returns (DESIGN.md §13).
  void release();

  bool inflated() const { return word_.is_inflated(); }

  // The heavy monitor, inflating on demand (Object.wait needs it even
  // without prior contention, like real JVMs).
  MonitorBase& heavy();

  bool held_by_current() const;
  const std::string& name() const { return name_; }
  const ThinLockStats& stats() const { return stats_; }

  // Lock-word accessors (tests/diagnostics).
  std::uint32_t word_owner_id() const { return word_.owner_id(); }
  std::uint32_t word_count() const { return word_.count(); }
  const LockWord& word() const { return word_; }

 private:
  // The one word-path implementation behind acquire()/try_acquire().
  // Without `ticks` the heavy paths block in MonitorBase::acquire.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC bool enter(
      const std::optional<std::uint64_t>& ticks);

  // Inflates (recording `cause`) and returns the fat monitor; thin
  // ownership transfers inside MonitorTable::inflate.
  MonitorBase& inflate(InflationCause cause);

  std::string name_;
  LockWord word_;
  ThinLockStats stats_;
};

// RAII section over a ThinLock.
class ThinLockGuard {
 public:
  explicit ThinLockGuard(ThinLock& lock) : lock_(lock) { lock_.acquire(); }
  ~ThinLockGuard() { lock_.release(); }
  ThinLockGuard(const ThinLockGuard&) = delete;
  ThinLockGuard& operator=(const ThinLockGuard&) = delete;

 private:
  ThinLock& lock_;
};

}  // namespace rvk::monitor
