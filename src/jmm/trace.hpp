// Execution trace recorder.
//
// §2.1 of the paper defines the JMM constraint revocation must respect: a
// rollback may not remove a happens-before edge some other thread's read
// already relied on, or the value it read appears "out of thin air".  The
// engine enforces this with non-revocability pinning (§2.2); *this* module
// exists to check, over whole executions, that the enforcement worked.
//
// A Trace captures a linear event stream — every shared read/write, every
// monitor acquire/release, every undo performed by a rollback, and section
// commit/abort boundaries.  All of it comes through one engine: the trace is
// an EngineObserver, fed the engine's transitions (Engine::publish) and the
// accesses made on its shard (heap::trace_access).  Because a shard runs
// its green threads one at a time, the stream is the exact total order of
// the shard's execution, which makes the checker (checker.hpp) precise
// rather than approximate.
//
// Tests construct one around a scheduler run and verify the collected trace.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/frame.hpp"
#include "heap/barriers.hpp"

namespace rvk::core {
class Engine;
}  // namespace rvk::core

namespace rvk::jmm {

enum class EventKind : std::uint8_t {
  kRead,           // shared read: loc, value
  kWrite,          // shared write: loc, value, old_value, frame
  kVolatileRead,   // volatile read
  kVolatileWrite,  // volatile write
  kAcquire,        // section entered: mon (one per engine frame)
  kRelease,        // section left: mon (commit or abort)
  kUndo,           // rollback restored loc to value (= the write's old value)
  kCommitOuter,    // thread's outermost section committed
  kAbortFrame,     // a frame aborted (after its undos were recorded)
  kPin,            // frame(s) up to `frame` were marked non-revocable
};

// Location identity: (base pointer, offset) — the paper's (reference,
// offset) store records.
struct Loc {
  const void* base = nullptr;
  std::uint32_t offset = 0;

  bool operator==(const Loc&) const = default;
};

struct LocHash {
  std::size_t operator()(const Loc& l) const {
    auto h = reinterpret_cast<std::uintptr_t>(l.base);
    return static_cast<std::size_t>(h ^ (h >> 17) ^ (l.offset * 0x9E3779B9u));
  }
};

struct Event {
  EventKind kind = EventKind::kRead;
  std::uint32_t tid = 0;       // green-thread id (0 = host code)
  Loc loc;                     // reads/writes/undos
  std::uint64_t value = 0;     // value read/written/restored
  std::uint64_t old_value = 0; // writes: previous value
  const void* monitor = nullptr;  // acquire/release
  std::uint64_t frame = 0;     // frame id for write/abort/pin events
};

// Records one engine's execution for its lifetime: construction subscribes
// to the engine, destruction unsubscribes.  It sees the accesses of that
// engine's green threads and, for the OS thread's engine, of host code; any
// number of Traces may record at once, each on its own engine.  Construct
// it after the engine and destroy it first, like any EngineObserver; the
// collected events stay readable until then.
class Trace final : public core::EngineObserver {
 public:
  explicit Trace(core::Engine& engine);
  ~Trace();

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  const std::vector<Event>& events() const { return events_; }

  void on_engine_event(const core::EngineEvent& e) override;
  void on_access(const heap::TraceAccess& a) override;

 private:
  void push(EventKind kind, std::uint32_t tid, const void* monitor,
            std::uint64_t frame);

  core::Engine& engine_;
  std::vector<Event> events_;
  // Slot address -> Loc of the latest write traced there, which names an
  // undo's slot even where a freed object's address was reused.
  std::unordered_map<const heap::Word*, Loc> loc_of_;
};

}  // namespace rvk::jmm
