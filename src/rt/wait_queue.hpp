// Prioritized wait queues — O(1) bitmap-indexed, intrusive.
//
// Paper §4: "we implemented prioritized monitor queues … When a thread
// releases a monitor, another thread is scheduled from the queue. If it is a
// high-priority thread, it is allowed to acquire the monitor. If it is a
// low-priority thread, it is allowed to run only if there are no other
// waiting high-priority threads."
//
// WaitQueue orders blocked threads by (priority descending, arrival order
// ascending), i.e. strict priority with FIFO fairness within a priority
// level.  It lives in rt/ rather than monitor/ because the scheduler must be
// able to yank an arbitrary blocked thread out of whatever queue it sits in
// when a revocation request targets it.
//
// Representation (DESIGN.md §8): one intrusive doubly-linked FIFO list per
// priority level plus a 64-bit occupancy bitmap with bit p set iff level p is
// non-empty.  Every operation the monitor and scheduler hot paths use —
// push, pop_best, peek_best, remove, has_waiter_above — is O(1): find the
// best level with one find-first-set over the bitmap, then pop the list
// head.  The list node is embedded in the VThread (a thread is linked into
// at most one queue at a time), so no queue operation ever allocates.
//
// The scheduler's ready queue is the same structure: in strict-priority mode
// it buckets by thread priority; in the paper-faithful round-robin mode
// every runnable thread shares one FIFO bucket (Order::kFifo), which keeps
// the Jikes "priorities do not affect dispatch" semantics bit-exact while
// still dispatching in O(1).
//
// A ready queue also takes hand-offs (push_handoff): threads readied by a
// cross-shard message, which run ahead of their bucket's ordinary waiters
// (DESIGN.md §16).  Hand-offs keep their arrival order among themselves,
// and a waiter is passed by at most one group of them per ordinary thread
// ahead of it, so hand-offs can delay a waiter but never starve it.
#pragma once

#include <bit>
#include <cstdint>

#include "common/check.hpp"

namespace rvk::rt {

class VThread;
class WaitQueue;

// Java priority range; only the relative order matters to the runtime.
inline constexpr int kMinPriority = 1;
inline constexpr int kNormPriority = 5;
inline constexpr int kMaxPriority = 10;

// One bucket per priority level (bucket index == priority).  Bucket 0 is
// used only by Order::kFifo queues; priority buckets occupy bits 1..10 of
// the occupancy bitmap, comfortably inside its 64-bit capacity.
inline constexpr int kQueueLevels = kMaxPriority + 1;
static_assert(kQueueLevels <= 64, "occupancy bitmap is a single 64-bit word");

// Intrusive queue linkage embedded in every VThread.  `queue` names the
// WaitQueue the thread is currently linked into (nullptr when unqueued);
// `seq` is the arrival stamp that implements FIFO-within-priority and
// survives re-bucketing when a queued thread's priority is boosted;
// `handoff` marks a thread queued by push_handoff.
struct QueueNode {
  VThread* next = nullptr;
  VThread* prev = nullptr;
  WaitQueue* queue = nullptr;
  std::uint64_t seq = 0;
  std::uint8_t bucket = 0;
  bool handoff = false;
};

class WaitQueue {
 public:
  enum class Order : std::uint8_t {
    kPriority,  // bucket by thread priority (monitor queues, strict ready)
    kFifo,      // single arrival-order bucket (round-robin ready queue)
  };

  explicit WaitQueue(Order order = Order::kPriority) : order_(order) {}
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Appends `t` to its priority level (or the single FIFO bucket).  O(1).
  // `t` must not currently be linked into any queue.
  void push(VThread* t);

  // Inserts `t` ahead of its bucket's ordinary (push()ed) waiters, behind
  // the hand-offs already there.  The first ordinary waiter is the bucket's
  // gate.  Once a hand-off was popped past the gate, the bucket is sealed
  // until the gate leaves, and hand-offs pushed meanwhile queue right
  // behind the gate (in arrival order) and lead once it left.  O(1).
  void push_handoff(VThread* t);

  // Removes and returns the best thread: highest priority, earliest arrival
  // among equals (hand-offs first).  Returns nullptr when empty.  O(1).
  VThread* pop_best();

  // Returns the best thread without removing it (nullptr when empty).  O(1).
  VThread* peek_best() const;

  // Removes a specific thread (used by Scheduler::interrupt and timed-wait
  // expiry).  Returns true if `t` was present.  O(1).
  bool remove(VThread* t);

  // Re-buckets `t` after its priority changed while queued (priority
  // inheritance boosts a holder that is itself blocked).  The node keeps its
  // original arrival stamp, so it slots into the new level exactly where the
  // old linear scan would have ranked it.  Called by VThread::set_priority;
  // no-op for kFifo queues, whose dispatch order ignores priority.
  void reposition(VThread* t);

  bool empty() const { return occupied_ == 0; }
  std::size_t size() const { return size_; }

  // True if any queued thread has priority strictly greater than `prio`:
  // one shift of the occupancy bitmap.
  bool has_waiter_above(int prio) const {
    RVK_DCHECK(order_ == Order::kPriority);
    RVK_DCHECK(prio >= 0 && prio <= kMaxPriority);
    return (occupied_ >> (prio + 1)) != 0;
  }

  // Visits queued threads (best first within the queue's ordering).
  // Defined in vthread.hpp, which completes VThread.
  template <typename F>
  void for_each(F&& f) const;

 private:
  struct List {
    VThread* head = nullptr;
    VThread* tail = nullptr;
    VThread* handoff_tail = nullptr;   // last hand-off ahead of the gate
    VThread* deferred_tail = nullptr;  // last hand-off behind the gate
  };

  // Index of the best non-empty bucket; queue must not be empty.
  int best_bucket() const {
    RVK_DCHECK(occupied_ != 0);
    return std::bit_width(occupied_) - 1;
  }

  int bucket_of(const VThread* t) const;
  // The bucket's first ordinary waiter (nullptr when it has none).
  static VThread* gate(const List& l);
  // Links `t` into bucket `b` right after `at` (at the head when null).
  void link_after(VThread* t, int b, VThread* at);
  // Links hand-off `t` into bucket `b`: ahead of the gate, or behind it
  // when the bucket is sealed.
  void link_handoff(VThread* t, int b);
  void unlink(VThread* t);

  List lists_[kQueueLevels] = {};
  std::uint64_t occupied_ = 0;  // bit b set iff lists_[b] is non-empty
  std::uint64_t sealed_ = 0;    // bit b set iff bucket b's gate was passed
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  Order order_;
};

}  // namespace rvk::rt
