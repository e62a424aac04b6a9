#include "rt/wait_queue.hpp"

#include "rt/vthread.hpp"

namespace rvk::rt {

int WaitQueue::bucket_of(const VThread* t) const {
  if (order_ == Order::kFifo) return 0;
  const int prio = t->priority();
  RVK_DCHECK(prio >= kMinPriority && prio <= kMaxPriority);
  return prio;
}

void WaitQueue::link_after(VThread* t, int b, VThread* at) {
  QueueNode& n = t->queue_node_;
  List& l = lists_[b];
  n.queue = this;
  n.bucket = static_cast<std::uint8_t>(b);
  n.prev = at;
  n.next = at != nullptr ? at->queue_node_.next : l.head;
  if (n.prev != nullptr) {
    n.prev->queue_node_.next = t;
  } else {
    l.head = t;
  }
  if (n.next != nullptr) {
    n.next->queue_node_.prev = t;
  } else {
    l.tail = t;
  }
  occupied_ |= std::uint64_t{1} << b;
  ++size_;
}

void WaitQueue::push(VThread* t) {
  // The hot path (every yield, wake and monitor park): a tail append.
  QueueNode& n = t->queue_node_;
  RVK_DCHECK(n.queue == nullptr);
  const int b = bucket_of(t);
  List& l = lists_[b];
  n.queue = this;
  n.bucket = static_cast<std::uint8_t>(b);
  n.seq = next_seq_++;
  n.handoff = false;
  n.next = nullptr;
  n.prev = l.tail;
  if (l.tail != nullptr) {
    l.tail->queue_node_.next = t;
  } else {
    l.head = t;
    occupied_ |= std::uint64_t{1} << b;
  }
  l.tail = t;
  ++size_;
}

void WaitQueue::push_handoff(VThread* t) {
  QueueNode& n = t->queue_node_;
  RVK_DCHECK(n.queue == nullptr);
  n.seq = next_seq_++;
  n.handoff = true;
  link_handoff(t, bucket_of(t));
}

VThread* WaitQueue::gate(const List& l) {
  return l.handoff_tail != nullptr ? l.handoff_tail->queue_node_.next : l.head;
}

void WaitQueue::link_handoff(VThread* t, int b) {
  List& l = lists_[b];
  if ((sealed_ >> b) & 1) {
    // The gate was passed already: queue behind it.
    RVK_DCHECK(gate(l) != nullptr);
    link_after(t, b, l.deferred_tail != nullptr ? l.deferred_tail : gate(l));
    l.deferred_tail = t;
  } else {
    link_after(t, b, l.handoff_tail);
    l.handoff_tail = t;
  }
}

void WaitQueue::unlink(VThread* t) {
  QueueNode& n = t->queue_node_;
  List& l = lists_[n.bucket];
  if (n.handoff) {
    // Each hand-off group ends at t's predecessor if that is a member.
    if (t == l.handoff_tail) {
      l.handoff_tail = n.prev;
    } else if (t == l.deferred_tail) {
      l.deferred_tail = n.prev->queue_node_.handoff ? n.prev : nullptr;
    }
  } else if (((sealed_ >> n.bucket) & 1) != 0 && n.prev == l.handoff_tail) {
    // The gate leaves a sealed bucket: the hand-offs deferred behind it
    // (only a sealed bucket has any) lead the bucket now.
    if (l.deferred_tail != nullptr) l.handoff_tail = l.deferred_tail;
    l.deferred_tail = nullptr;
    sealed_ &= ~(std::uint64_t{1} << n.bucket);
  }
  if (n.prev != nullptr) {
    n.prev->queue_node_.next = n.next;
  } else {
    l.head = n.next;
  }
  if (n.next != nullptr) {
    n.next->queue_node_.prev = n.prev;
  } else {
    l.tail = n.prev;
  }
  if (l.head == nullptr) occupied_ &= ~(std::uint64_t{1} << n.bucket);
  n.next = nullptr;
  n.prev = nullptr;
  n.queue = nullptr;
  --size_;
}

VThread* WaitQueue::pop_best() {
  if (occupied_ == 0) return nullptr;
  const int b = best_bucket();
  const List& l = lists_[b];
  VThread* t = l.head;
  // A leading hand-off that passes the gate seals the bucket.
  if (t->queue_node_.handoff && gate(l) != nullptr) {
    sealed_ |= std::uint64_t{1} << b;
  }
  unlink(t);
  return t;
}

VThread* WaitQueue::peek_best() const {
  if (occupied_ == 0) return nullptr;
  return lists_[best_bucket()].head;
}

bool WaitQueue::remove(VThread* t) {
  if (t->queue_node_.queue != this) return false;
  unlink(t);
  return true;
}

void WaitQueue::reposition(VThread* t) {
  RVK_DCHECK(t->queue_node_.queue == this);
  if (order_ == Order::kFifo) return;  // dispatch order ignores priority
  const int b = bucket_of(t);
  if (b == t->queue_node_.bucket) return;
  const std::uint64_t seq = t->queue_node_.seq;
  unlink(t);
  if (t->queue_node_.handoff) {
    link_handoff(t, b);
    return;
  }
  // An ordinary waiter re-enters in arrival order behind the new level's
  // hand-offs.  Ordinary nodes are sorted by `seq` (pushes stamp increasing
  // values), so the walk stops at the first younger waiter; priority
  // changes while queued are rare and the bucket holds only same-priority
  // peers, so the walk is short.
  List& l = lists_[b];
  VThread* at = l.deferred_tail != nullptr ? l.deferred_tail : l.handoff_tail;
  for (VThread* next = at != nullptr ? at->queue_node_.next : l.head;
       next != nullptr && next->queue_node_.seq < seq;
       next = next->queue_node_.next) {
    at = next;
  }
  link_after(t, b, at);
}

}  // namespace rvk::rt
