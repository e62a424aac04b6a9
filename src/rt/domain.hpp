// Scheduler shards: rt::Domain and rt::DomainSet (DESIGN.md §16).
//
// A Domain owns one scheduler shard — its own per-priority ready queue,
// timer heap, virtual clock, and (via the scheduler's OS thread) its own
// thread-local undo-log chunk pool — pinned to one OS thread.  A process
// runs N shards (`RVK_SHARDS`, default 1) under a DomainSet, in one of two
// modes:
//
//  * kCooperative — every shard is multiplexed on the calling OS thread in
//    a fixed round-robin (drain mailboxes, run the shard until it stalls or
//    empties, next shard).  Fully deterministic: this is what the
//    virtual-clock tests and the exploration harness drive.
//  * kOsThreads — one real thread per shard.  The protocol code is
//    identical; only the outer loop and the idle/termination handshake
//    differ.  This is the mode the shard_scale benchmark and the TSan CI
//    leg exercise.
//
// The invariant the whole design preserves is *shard-local atomicity*: the
// classic "code between yield points is atomic" contract keeps holding, per
// shard, for every piece of state the revocation engine mutates — frames,
// undo logs, lock words, monitors.  Cross-shard operations never touch
// remote state directly.  The one cross-shard operation is a shipped
// synchronized section (remote_call): a Message on the owner shard's SPSC
// mailbox (mailbox.hpp) makes the owner run the closure in a helper vthread
// at the requester's priority, between its own yield points.  Cross-shard
// notify is just such a section, and a cross-shard inversion is a local one
// on the owner shard: the helper contends there, so detection, oldest-frame
// targeting and upward pin closure (§2.2) apply unchanged.
//
// With one shard a DomainSet degenerates to today's runtime: remote calls
// to the caller's own shard execute inline, the mailboxes stay empty, and
// thread ids start at 1 — bit-for-bit identical behaviour, which the
// deterministic suite depends on.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rt/mailbox.hpp"
#include "rt/scheduler.hpp"
#include "support/annotations.hpp"

namespace rvk::rt {

class DomainSet;

class Domain {
 public:
  // Largest shard count a DomainSet accepts (the RVK_SHARDS clamp); far
  // above any sane RVK_SHARDS.
  static constexpr std::size_t kMaxShards = 16;

  // `senders` is the number of shards that may post here (the set's size):
  // the domain keeps one inbound ring per sender, no more.
  Domain(DomainSet* set, std::uint16_t id, std::size_t senders,
         SchedulerConfig cfg);
  ~Domain();

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  std::uint16_t id() const { return id_; }
  Scheduler& sched() { return *sched_; }
  const Scheduler& sched() const { return *sched_; }
  DomainSet* set() const { return set_; }

  // ---- Cross-shard producer side (called from OTHER shards, or from the
  // set-owning thread before the shards run) ----

  // Enqueues `m` into this domain's inbox for shard `m.from`, which must be
  // below the sender count.  Retries from a yield point when the ring is
  // momentarily full (sender must be a vthread in that case).  Counts the
  // message as inbound work until the receiving shard fully executes it —
  // the termination handshake reads that counter, so a set never reports
  // quiescence while a message is still in flight.
  void post(const Message& m);

  // Messages accepted but not yet fully executed (in a ring, in the
  // deferred-work list, or running in a helper).  Zero means no cross-shard
  // work is pending on this shard.
  std::uint64_t inbound_work() const {
    return inbound_work_.load(std::memory_order_acquire);
  }

  // ---- Home-shard consumer side (its OS thread only) ----

  // Pops every deliverable message and dispatches it through
  // handle_message(); shipped sections are deferred to service_pending().
  // Returns the number of messages popped.
  std::size_t drain();

  // Spawns one helper vthread per pending shipped section.  Scheduler
  // context; may allocate.
  void service_pending();

  std::size_t drain_and_service() {
    const std::size_t n = drain();
    service_pending();
    return n;
  }

  // Anything popped-but-unserviced or still in a ring?  (Consumer-side
  // exact; used by the run loops, and by the termination detector under
  // the DomainSet mutex when all producers are idle.)
  bool has_inbox_data() const;

  // Requesters parked in DomainSet::remote_call; woken by kSectionDone.
  WaitQueue& remote_waiters() { return remote_waiters_; }

 private:
  friend class DomainSet;

  // The mailbox handler proper.  It runs in scheduler context inside the
  // owner shard's dispatch loop — concretely, it can sit between a
  // monitor's release and the next dispatch, i.e. inside the shard's
  // commit/abort/release windows — so it is a forbidden root for rvkcheck:
  // no yield, no blocking, no allocation.  kSectionDone executes inline
  // via a NO_YIELD wakeup primitive; kRunSection (spawning allocates) is
  // parked in the fixed-capacity pending_ array for service_pending().
  RVK_NO_YIELD void handle_message(const Message& m);

  // Helper-vthread body for one shipped section (green-thread context).
  void run_remote_section(RemoteCall* call);

  void finish_inbound() {
    inbound_work_.fetch_sub(1, std::memory_order_release);
  }

  static constexpr std::size_t kMaxPending = 256;

  DomainSet* set_;
  std::uint16_t id_;
  std::unique_ptr<Scheduler> sched_;
  // inbox_[s]: messages from shard s, one ring per sender of the set.
  std::unique_ptr<Mailbox[]> inbox_;
  std::size_t senders_;
  std::array<Message, kMaxPending> pending_{};
  std::size_t pending_n_ = 0;
  WaitQueue remote_waiters_;
  std::atomic<std::uint64_t> inbound_work_{0};
};

// The shard currently entered on this OS thread (set by the DomainSet run
// loops and with_domain), or nullptr in the classic unsharded runtime.
// Out-of-line for the same TLS-across-fiber-switch reason as
// current_scheduler() — under kOsThreads this *is* the M:N mapping that
// rationale hedged for.
Domain* current_domain();

class DomainSet {
 public:
  enum class Mode { kCooperative, kOsThreads };

  struct Config {
    std::size_t shards = env_shards();
    Mode mode = Mode::kCooperative;
    // Per-shard scheduler template.  on_stall is forced to kReturn (the
    // set's run loops own stall handling: a stalled shard may just be
    // waiting for a message) and first_thread_id is derived per shard.
    SchedulerConfig sched;
  };

  // RVK_SHARDS env knob; default 1, clamped to [1, kMaxShards].
  static std::size_t env_shards();

  // The default configuration (RVK_SHARDS shards, cooperative) needs
  // Config's member initializers, which are unusable in a default argument
  // until this class is complete — hence the separate constructor.
  DomainSet();
  explicit DomainSet(Config cfg);
  ~DomainSet();

  DomainSet(const DomainSet&) = delete;
  DomainSet& operator=(const DomainSet&) = delete;

  std::size_t size() const { return domains_.size(); }
  Domain& domain(std::size_t i) { return *domains_[i]; }

  // ---- Lifecycle ----
  //
  // setup(d) runs first, on the shard's OS thread with the shard entered —
  // the natural place to build the shard's Engine (its constructor then
  // auto-binds to the current domain) and spawn the shard's vthreads.
  // teardown(d) runs on the same thread after global quiescence, before
  // the set returns/joins.

  // kCooperative: round-robin every shard on the calling thread until all
  // are quiescent.  Deterministic; aborts on a cross-shard deadlock.
  void run(const std::function<void(Domain&)>& setup,
           const std::function<void(Domain&)>& teardown = {});

  // kOsThreads: launch one thread per shard, then wait for global
  // quiescence (every shard idle, every mailbox empty) and join.
  void start(const std::function<void(Domain&)>& setup,
             const std::function<void(Domain&)>& teardown = {});
  void join();

  // Runs `fn` on the calling thread with shard `i` entered (TLS pinned to
  // it).  For tests and benches that poke a shard while nothing runs —
  // never legal while the set is started in kOsThreads mode.
  void with_domain(std::size_t i, const std::function<void(Domain&)>& fn);

  // ---- Cross-shard operations (green-thread context) ----

  // Ships `body` to `target` and parks until it completed there.  Same
  // shard: runs inline (the RVK_SHARDS=1 identity).  Rethrows a failure as
  // std::runtime_error.  Must not be called while holding a local
  // synchronized section: cross-shard lock nesting is how distributed
  // deadlocks are built, so the API forbids it outright.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC void remote_call(
      std::uint16_t target, int priority, const char* name,
      std::function<void()> body);

  bool deadlocked() const { return deadlocked_; }

 private:
  friend class Domain;

  enum class ShardState : std::uint8_t { kBusy, kIdle, kStalled };

  // Producer-side notify for kOsThreads: wakes the shard threads that idle,
  // so the target re-checks its inbox.
  void poke();
  void thread_main(Domain& d, const std::function<void(Domain&)>& setup,
                   const std::function<void(Domain&)>& teardown);
  void shard_loop(Domain& d, const std::function<void(Domain&)>& setup,
                  const std::function<void(Domain&)>& teardown);
  std::uint64_t total_inbound() const;

  Config cfg_;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<std::thread> threads_;
  bool started_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ShardState> states_;
  bool shutdown_ = false;
  bool deadlocked_ = false;
  // First exception that escaped a shard thread (kOsThreads): stashed here
  // and rethrown from join() so a failing green thread surfaces as a test
  // failure instead of std::terminate on the shard thread.
  std::exception_ptr first_error_;
};

}  // namespace rvk::rt
