// Trace/undo-log identity contract regression tests.
//
// The checker correlates Undo events with Write events by Loc (base,
// offset).  Undo-log entries carry only the slot address, which the Trace
// maps back to the Loc of the write it traced at that slot, so every
// accessor must trace the slot it logs.  Statics historically logged one
// identity and traced another — a rolled-back static store became an
// orphaned undo for the checker.  These tests pin the contract for statics,
// object fields, array elements and volatile variables (whose accesses must
// surface as kVolatileRead/kVolatileWrite on both the unmarked fast path
// and the writer-marked slow path).
#include <gtest/gtest.h>

#include <cstddef>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "heap/statics.hpp"
#include "heap/volatile_var.hpp"
#include "jmm/checker.hpp"
#include "jmm/trace.hpp"
#include "rt/scheduler.hpp"

namespace rvk::jmm {
namespace {

std::size_t count_kind(const std::vector<Event>& ev, EventKind k, Loc loc) {
  std::size_t n = 0;
  for (const Event& e : ev) {
    if (e.kind == k && e.loc == loc) ++n;
  }
  return n;
}

TEST(TraceIdentityTest, StaticsRollbackCorrelatesUndoWithWrite) {
  rt::Scheduler sched;
  core::Engine engine(sched);
  heap::StaticsTable statics;
  const std::uint32_t g = statics.define("g", 7);
  core::RevocableMonitor* m = engine.make_monitor("m");

  Trace trace(engine);
  sched.spawn("T", rt::kNormPriority, [&] {
    engine.section_enter(*m);
    statics.set<int>(g, 42);
    engine.section_abort();  // undo must restore and trace the same Loc
  });
  sched.run();

  // The write and its undo must share one Loc; an identity mismatch leaves
  // the undo orphaned (and the checker flags the store as never undone).
  const std::vector<Event>& ev = trace.events();
  Loc write_loc{};
  for (const Event& e : ev) {
    if (e.kind == EventKind::kWrite) write_loc = e.loc;
  }
  ASSERT_NE(write_loc.base, nullptr);
  EXPECT_EQ(count_kind(ev, EventKind::kUndo, write_loc), 1u);
  CheckResult r = check_consistency(ev);
  EXPECT_TRUE(r.ok()) << r.report();
  EXPECT_EQ(r.undos_seen, 1u);
  // Checked last: the trace is still live and would record this read.
  EXPECT_EQ(statics.get<int>(g), 7) << "rollback must restore the slot";
}

TEST(TraceIdentityTest, VolatileKindsConsistentOnFastAndSlowPaths) {
  rt::Scheduler sched;
  core::Engine engine(sched);
  heap::VolatileVar<int> v("v");
  core::RevocableMonitor* m = engine.make_monitor("m");

  Trace trace(engine);
  // Round-robin runs the writer first: it stores v inside a section
  // (marking v's meta) and finishes.  The reader's first load then takes
  // the *slow* path (stale writer mark -> engine hook clears it), and its
  // second load takes the unmarked fast path.  Both must trace
  // kVolatileRead — the kinds may not depend on which barrier path ran.
  sched.spawn("writer", rt::kNormPriority, [&] {
    engine.synchronized(*m, [&] {
      v.store(1);
      for (int i = 0; i < 60; ++i) sched.yield_point();
    });
  });
  sched.spawn("reader", rt::kNormPriority, [&] {
    EXPECT_EQ(v.load(), 1);  // slow path (marked)
    EXPECT_EQ(v.load(), 1);  // fast path (mark cleared)
  });
  sched.run();

  const std::vector<Event>& ev = trace.events();
  const Loc loc{&v, 0};
  EXPECT_EQ(count_kind(ev, EventKind::kVolatileWrite, loc), 1u);
  EXPECT_EQ(count_kind(ev, EventKind::kVolatileRead, loc), 2u);
  // Never as plain accesses — the kinds are part of the identity contract.
  EXPECT_EQ(count_kind(ev, EventKind::kWrite, loc), 0u);
  EXPECT_EQ(count_kind(ev, EventKind::kRead, loc), 0u);
  CheckResult r = check_consistency(ev);
  EXPECT_TRUE(r.ok()) << r.report();
}

TEST(TraceIdentityTest, FieldArrayAndVolatileRollbackCorrelateUndoWithWrite) {
  rt::Scheduler sched;
  core::Engine engine(sched);
  heap::Heap h;
  heap::HeapObject* o = h.alloc("o", 2);
  heap::HeapArray<int>* arr = h.alloc_array<int>(4);
  heap::VolatileVar<int> v("v", 3);
  core::RevocableMonitor* m = engine.make_monitor("m");
  const auto stores = [&] {
    o->set<int>(1, 10);
    arr->set(2, 20);
    v.store(30);
  };

  // An untraced run of the same section yields the three slot addresses.
  std::vector<const heap::Word*> slots;
  sched.spawn("probe", rt::kNormPriority, [&] {
    engine.section_enter(*m);
    stores();
    const log::UndoLog& ul = sched.current_thread()->undo_log;
    for (std::size_t i = 0; i < ul.size(); ++i) {
      slots.push_back(ul.entry(i).addr);
    }
    engine.section_abort();
  });
  sched.run();
  ASSERT_EQ(slots.size(), 3u);

  Trace trace(engine);
  // Writes traced at the same slots under other Locs, as when a freed
  // object's memory is reused: an undo must resolve through the latest
  // write to its slot, never an earlier one.
  int gone = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    heap::trace_access(heap::TraceAccess::Kind::kWrite, slots[i], &gone, i,
                       0, 0);
  }
  sched.spawn("T", rt::kNormPriority, [&] {
    engine.section_enter(*m);
    stores();
    engine.section_abort();  // each undo must name this section's write
  });
  sched.run();

  const std::vector<Event>& ev = trace.events();
  std::vector<Loc> written;
  for (const Event& e : ev) {
    if ((e.kind == EventKind::kWrite || e.kind == EventKind::kVolatileWrite) &&
        e.frame != 0) {
      written.push_back(e.loc);
    }
  }
  ASSERT_EQ(written.size(), 3u);
  EXPECT_EQ(written[0], (Loc{o, 1}));
  EXPECT_EQ(written[1], (Loc{arr, 2}));
  EXPECT_EQ(written[2], (Loc{&v, 0}));
  for (const Loc& loc : written) {
    EXPECT_EQ(count_kind(ev, EventKind::kUndo, loc), 1u)
        << loc.base << ", " << loc.offset;
  }
  CheckResult r = check_consistency(ev);
  EXPECT_TRUE(r.ok()) << r.report();
  EXPECT_EQ(r.undos_seen, 3u);
  // Checked last: the trace is still live and records these reads.
  EXPECT_EQ(o->get<int>(1), 0);
  EXPECT_EQ(arr->get(2), 0);
  EXPECT_EQ(v.load(), 3);
}

}  // namespace
}  // namespace rvk::jmm
