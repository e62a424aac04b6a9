// Cross-shard mailboxes for the sharded runtime (DESIGN.md §16).
//
// Shard-local atomicity is the sharded form of the green-thread invariant:
// a vthread's frames, lock words and owned monitors are only ever mutated
// from their home shard.  The one thing that crosses shards is a shipped
// synchronized section (DomainSet::remote_call): it is a Message placed in
// the owner shard's mailbox and run over there in a helper vthread at the
// requester's priority, so any inversion it meets is detected and revoked
// on the owner shard like a local one, and the engine's
// undo-then-release sequence (§3.1.2) never runs concurrently with the
// state it mutates.  Cross-shard notify is such a section.
//
// One Mailbox is a bounded single-producer/single-consumer ring: a Domain
// keeps one inbox per sender shard, so each ring has exactly one producer
// (any vthread of the sending shard — they share an OS thread, which is the
// SPSC guarantee) and one consumer (the receiving shard's drain).  The ring
// is the only synchronization a message needs: fields written by the sender
// before the release-store of the tail are safely read by the consumer
// after its acquire-load, including everything behind the RemoteCall
// pointer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>

namespace rvk::rt {

class VThread;

// A shipped critical section: the unit of cross-shard work.  It lives on
// the requester's fiber stack; the requester parks until `done`, so the
// storage is stable until the home shard's kSectionDone has been drained.
struct RemoteCall {
  std::function<void()> body;   // runs in a helper vthread on the home shard
  const char* name = "remote";  // helper vthread name (static storage)
  int priority = 5;             // helper priority: the requester's, usually
  std::uint16_t from = 0;       // requester shard (kSectionDone routing)
  VThread* requester = nullptr; // the parked caller
  // Completion state: written by the home shard's helper, then shipped back
  // inside a kSectionDone message, so the requester's shard only reads it
  // after the ring's acquire fence.  `done` itself is flipped by the
  // requester's own shard (its drain handler) — never concurrently.
  bool done = false;
  bool failed = false;          // body threw; error holds what()
  char error[120] = {0};
};

// The envelope: `call` is only dereferenced on the shard that the message
// kind names (the home shard for kRunSection, the requester's shard for
// kSectionDone).
struct Message {
  enum class Kind : std::uint8_t {
    kRunSection,   // spawn a helper on the home shard and run call->body
    kSectionDone,  // remote section finished; unpark call->requester
  };
  Kind kind = Kind::kRunSection;
  std::uint16_t from = 0;        // sender shard id
  RemoteCall* call = nullptr;
};
static_assert(sizeof(Message) == 16, "a message is {kind, from, call}");

// Bounded SPSC ring.  Capacity is deliberately small: cross-shard traffic
// is the control plane, not the data path, and a full ring simply makes the
// sender retry from a yield point (it can always make progress — the
// consumer drains from its scheduler loop, never inside a green thread that
// could be waiting on the sender).
class Mailbox {
 public:
  static constexpr std::size_t kCapacity = 256;

  // Producer side (the sending shard's OS thread only).
  bool try_push(const Message& m) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail - head == kCapacity) return false;  // full
    ring_[tail % kCapacity] = m;
    // rvkcheck:allow(alloc): std::atomic<size_t>::store — the checker's
    // name-based resolver collides it with heap::VolatileVar::store (whose
    // write barrier may log); a plain atomic ring store allocates nothing.
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side (the receiving shard's OS thread only).
  bool try_pop(Message& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;  // empty
    out = ring_[head % kCapacity];
    // rvkcheck:allow(alloc): std::atomic store, not VolatileVar::store (see
    // try_push).
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Racy size probe: exact when the opposite side is quiescent (which is
  // how the DomainSet termination detector uses it — under its mutex, with
  // every producer idle), conservative otherwise.
  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::array<Message, kCapacity> ring_{};
  // Head and tail on separate cache lines so producer and consumer do not
  // false-share.
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace rvk::rt
