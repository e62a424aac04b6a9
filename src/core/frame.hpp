// Synchronized-section frames.
//
// Each dynamic entry into a synchronized section pushes a Frame on the
// owning thread's frame stack.  A frame remembers everything needed to make
// the section speculative: which monitor guards it, the undo-log watermark
// at entry (§3.1.2 — rollback replays the log suffix above it), whether the
// entry was recursive, and the section's revocability status (§2.2).
//
// Frame ids are allocated from a single monotonically increasing counter, so
// within one thread's stack ids strictly increase with nesting depth.  The
// JMM guard exploits this: "pin every frame whose id is <= the writer's
// frame id" marks exactly the write's enclosing sections.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/event.hpp"

namespace rvk::heap {
class Heap;
class HeapObject;
}  // namespace rvk::heap

namespace rvk::rt {
class VThread;
}  // namespace rvk::rt

namespace rvk::core {

class RevocableMonitor;

// Why a frame became non-revocable; kept for statistics and diagnostics.
enum class PinReason : std::uint8_t {
  kNone = 0,
  kDependency,   // read-write dependency escaped to another thread (§2.2)
  kNativeCall,   // native method invoked inside the section (§2.2)
  kWait,         // Object.wait() called inside the section (§2.2)
  kBudget,       // livelock guard: revocation budget exhausted (extension)
  kManual,       // user pinned explicitly
};

struct Frame {
  RevocableMonitor* monitor = nullptr;
  std::uint64_t id = 0;
  std::size_t log_mark = 0;     // undo-log watermark at entry
  bool recursive = false;       // monitor already held by this thread
  bool nonrevocable = false;
  PinReason pin_reason = PinReason::kNone;
  int revocations = 0;          // times this section instance was revoked

  // Objects allocated while this frame was innermost.  On abort they are
  // reclaimed (the section "never executed"; its heap stores are undone, so
  // nothing can reference them); on commit they migrate to the parent frame
  // and become permanent at the outermost commit.
  std::vector<std::pair<heap::Heap*, heap::HeapObject*>> allocs;
};

// Pooled frame stack (DESIGN.md §11).  pop() only lowers the depth; the
// Frame object — in particular its `allocs` vector's capacity — stays in
// place and is recycled by the next push(), so steady-state section entry
// allocates nothing.  Iteration order is outermost-first, matching the
// std::vector<Frame> this replaces.
class FrameStack {
 public:
  // Returns a reset frame at the new top.  References are invalidated like
  // vector push_back's (the backing store may grow).
  Frame& push() {
    if (depth_ == store_.size()) store_.emplace_back();
    Frame& f = store_[depth_++];
    f.monitor = nullptr;
    f.id = 0;
    f.log_mark = 0;
    f.recursive = false;
    f.nonrevocable = false;
    f.pin_reason = PinReason::kNone;
    f.revocations = 0;
    f.allocs.clear();  // keeps capacity — the pooling point
    return f;
  }

  void pop() { --depth_; }

  Frame& back() { return store_[depth_ - 1]; }
  const Frame& back() const { return store_[depth_ - 1]; }
  std::size_t size() const { return depth_; }
  bool empty() const { return depth_ == 0; }

  Frame* begin() { return store_.data(); }
  Frame* end() { return store_.data() + depth_; }
  const Frame* begin() const { return store_.data(); }
  const Frame* end() const { return store_.data() + depth_; }

 private:
  std::vector<Frame> store_;  // live prefix [0, depth_), pooled tail beyond
  std::size_t depth_ = 0;
};

// Per-thread engine state, attached to rt::VThread::engine_state.
struct ThreadSync {
  FrameStack frames;

  // Pre-boost priority while a revocation request is pending against this
  // thread (EngineConfig::boost_victim); -1 when no boost is active.
  int boost_restore_priority = -1;

  // Lazy-frame registers (DESIGN.md §11): while rt::VThread::lazy_frame is
  // set, the innermost section exists only here — Engine::materialize_lazy
  // turns them into a real Frame at the first yield point, logged write,
  // nested entry, or blocking call.  Green-thread atomicity guarantees no
  // other thread runs while they are live.
  RevocableMonitor* lazy_monitor = nullptr;
  std::size_t lazy_log_mark = 0;
  int lazy_budget_used = 0;

  // Oldest (outermost) active frame guarding `m`, or nullptr.  Revocation
  // targets this frame so the monitor is fully released by the unwind.
  Frame* oldest_frame_of(const RevocableMonitor* m) {
    for (Frame& f : frames) {
      if (f.monitor == m) return &f;
    }
    return nullptr;
  }

  bool frame_active(std::uint64_t id) const {
    for (const Frame& f : frames) {
      if (f.id == id) return true;
    }
    return false;
  }
};

// One engine protocol transition (§3.1.2 enter/commit/abort/retry, §4
// revocation request/delivery/refusal/drop, §2.2 pin/unpin, §1.1 deadlock
// break), named by the obs trace vocabulary's engine kinds.  `frame` is the
// frame the transition is about (0 for kDeadlockBreak); `monitor` is null
// when none applies; `aux` is 1 on a kRevokeDenied that refused for budget
// (and pinned, §2.2) and the retry count on kSectionRetry; `frames` is the
// thread's live frame stack, valid only during the callback.
struct EngineEvent {
  obs::EventKind kind;
  rt::VThread* thread;
  std::uint64_t frame;
  const RevocableMonitor* monitor;
  std::uint64_t aux;
  const FrameStack* frames;
};

// Subscriber to an engine's event stream (Engine::subscribe).  Callbacks run
// inside the transition — often inside the commit/abort forbidden region —
// so they must not block, yield or enter a monitor.  Each observer ignores
// the kinds it does not use.
class EngineObserver {
 public:
  virtual void on_engine_event(const EngineEvent& e) = 0;

 protected:
  ~EngineObserver() = default;
};

}  // namespace rvk::core
