// A stand-in for core::Engine on the far side of rt::EngineLink, for tests
// of the layers below the engine: it attaches to a scheduler like the
// engine does, counts what rt/ and heap/ call, and lets a test script the
// answers that matter (delivery, stall rescue).
#pragma once

#include <functional>

#include "heap/barriers.hpp"
#include "rt/scheduler.hpp"

namespace rvk::test {

class FakeEngineLink final : public rt::EngineLink {
 public:
  explicit FakeEngineLink(rt::Scheduler& s, bool marks_writes = false)
      : rt::EngineLink(marks_writes), s_(s) {
    s_.attach_engine(this);
  }
  ~FakeEngineLink() { s_.detach_engine(); }

  FakeEngineLink(const FakeEngineLink&) = delete;
  FakeEngineLink& operator=(const FakeEngineLink&) = delete;

  // Scripted answers; by default a stall is never rescued.
  std::function<void(rt::VThread*)> deliver_fn;
  std::function<bool()> stall_fn;

  int delivered = 0;
  int stalls = 0;
  int after_dispatches = 0;
  int tracked_reads = 0;
  int accesses = 0;
  int forbidden_switches = 0;
  const char* last_forbidden_where = nullptr;

  void deliver(rt::VThread* t) override {
    ++delivered;
    if (deliver_fn) deliver_fn(t);
  }
  bool on_stall() override {
    ++stalls;
    return stall_fn && stall_fn();
  }
  void after_dispatch() override { ++after_dispatches; }
  void materialize_lazy_frame(rt::VThread* t) override {
    t->lazy_frame = false;
  }
  void on_tracked_read(heap::ObjectMeta& meta) override {
    ++tracked_reads;
    meta.clear();  // an engine may clear stale marks
  }
  void on_alloc(heap::Heap*, heap::HeapObject*) override {}
  void on_access(const heap::TraceAccess&) override { ++accesses; }
  void on_forbidden_switch(rt::VThread*, const char* where) override {
    ++forbidden_switches;
    last_forbidden_where = where;
  }

 private:
  rt::Scheduler& s_;
};

}  // namespace rvk::test
