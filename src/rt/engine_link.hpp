// The engine link: the one way rt/ and heap/ call up into the revocation
// engine (core::Engine implements it; DESIGN.md §16, "Engine binding").
//
// Each Scheduler holds at most one link, attached by the engine's
// constructor and detached by its destructor, so every shard reaches its
// own engine and shards may differ in engine configuration (jmm_guard
// included).  The lower layers find the link from what they already hold:
// the scheduler (revocation delivery, stall and background work, lazy
// frames at yield points and blocking calls, forbidden-region switch
// points), the running thread's scheduler (the write barrier's lazy frame,
// the allocation hook), or, for a marked read or a traced access,
// acting_engine_link() below.  The link itself is per scheduler; the one
// process-wide word is the access gate below, a count of subscriptions.
#pragma once

#include <atomic>

#include "rt/vthread.hpp"
#include "support/annotations.hpp"

namespace rvk::heap {
struct ObjectMeta;
struct TraceAccess;
class Heap;
class HeapObject;
}  // namespace rvk::heap

namespace rvk::rt {

class EngineLink {
 public:
  // `marks_writes`: whether sections under this engine stamp writer marks
  // (the §2.2 dependency-tracking read barrier's other half).
  explicit EngineLink(bool marks_writes) : marks_writes_(marks_writes) {}

  // Readies `t` for sections under this engine.  The write barrier's
  // dependency-mark test is a flag on the thread itself, so the in-section
  // store path loads nothing beyond the thread it already holds.
  void adopt(VThread* t) const { t->marks_writes = marks_writes_; }

  // Serves the current thread's pending revocation request: throws the
  // engine's rollback exception, or clears the request when it went stale.
  // MAY_YIELD: the throw unwinds into scheduler-visible state.
  RVK_MAY_YIELD virtual void deliver(VThread* t) = 0;

  // Nothing is runnable or sleeping.  Returns true if it made progress
  // possible (broke a deadlock by revocation).  Scheduler context.
  virtual bool on_stall() = 0;

  // Runs after every dispatch, in scheduler context (the periodic
  // background sweep); must not block.
  virtual void after_dispatch() = 0;

  // Turns `t`'s lazily deferred synchronized frame into a real one
  // (DESIGN.md §11).  Callers guard on t->lazy_frame.  MAY_ALLOC: it pushes
  // a pooled core::Frame.
  RVK_MAY_ALLOC virtual void materialize_lazy_frame(VThread* t) = 0;

  // A read observed a writer mark that is not the reader's own live
  // speculation.  May clear the mark.  NO_YIELD: every heap read can get
  // here, forbidden regions included.
  RVK_NO_YIELD virtual void on_tracked_read(heap::ObjectMeta& meta) = 0;

  // The current thread allocated `obj` inside a synchronized section.
  virtual void on_alloc(heap::Heap* heap, heap::HeapObject* obj) = 0;

  // A managed access, traced while some engine has a subscriber (the
  // access gate below); the engine hands it to its observers.
  virtual void on_access(const heap::TraceAccess& a) = 0;

  // `t` reached a yield point or blocking call (`where`) inside a marked
  // forbidden region; the engine reports it to its analyzer.  Must not
  // block or yield.
  virtual void on_forbidden_switch(VThread* t, const char* where) = 0;

 protected:
  ~EngineLink() = default;

 private:
  bool marks_writes_;
};

// The link a marked read escalates to: the running scheduler's, else the
// entered shard's, else the one attached on this OS thread outside any
// shard (the classic runtime's one engine per OS thread).  nullptr when
// there is none.  Out-of-line: it reads scheduler-identity TLS.
EngineLink* acting_engine_link();

namespace detail {
// The heap's access gate: how many observers are subscribed to any engine
// in the process (core::Engine::subscribe/unsubscribe keep it).  While it is
// zero, heap::trace_access costs one predicted relaxed load.  A plain
// global, not TLS, like obs::detail::g_obs_active: the inline load stays
// valid across fiber switches.
extern std::atomic<int> g_access_observers;
}  // namespace detail

}  // namespace rvk::rt
