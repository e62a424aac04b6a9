// Trace/undo-log identity contract regression tests.
//
// The checker correlates Undo events with Write events by Loc (base,
// offset), so every accessor must trace the SAME identity the write barrier
// logs.  Statics historically logged the table as the base while tracing
// the slot — a rolled-back static store became an orphaned undo for the
// checker.  These tests pin the contract for statics and for volatile
// variables (whose accesses must surface as kVolatileRead/kVolatileWrite on
// both the unmarked fast path and the writer-marked slow path).
#include <gtest/gtest.h>

#include <cstddef>

#include "core/engine.hpp"
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

}  // namespace
}  // namespace rvk::jmm
