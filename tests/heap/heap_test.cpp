// Heap accessors and barriers: the paper's putfield/putstatic/Xastore
// interception (§3.1.2) with the fast-path in-section test (§1.1).
#include <gtest/gtest.h>

#include "../rt/fake_engine_link.hpp"
#include "heap/heap.hpp"
#include "heap/volatile_var.hpp"
#include "rt/scheduler.hpp"

namespace rvk::heap {
namespace {

TEST(HeapTest, TypedFieldAccess) {
  Heap h;
  HeapObject* o = h.alloc("o", 4);
  o->set<int>(0, -7);
  o->set<double>(1, 2.5);
  o->set<bool>(2, true);
  EXPECT_EQ(o->get<int>(0), -7);
  EXPECT_EQ(o->get<double>(1), 2.5);
  EXPECT_EQ(o->get<bool>(2), true);
}

TEST(HeapTest, ReferenceFields) {
  Heap h;
  HeapObject* a = h.alloc("a", 1);
  HeapObject* b = h.alloc("b", 1);
  a->set_ref(0, b);
  EXPECT_EQ(a->get_ref(0), b);
  a->set_ref(0, nullptr);
  EXPECT_EQ(a->get_ref(0), nullptr);
}

TEST(HeapTest, ArrayAccess) {
  Heap h;
  HeapArray<std::uint64_t>* arr = h.alloc_array<std::uint64_t>(16);
  EXPECT_EQ(arr->length(), 16u);
  for (std::size_t i = 0; i < arr->length(); ++i) arr->set(i, i * i);
  for (std::size_t i = 0; i < arr->length(); ++i) EXPECT_EQ(arr->get(i), i * i);
}

TEST(HeapTest, StaticsDefineAndAccess) {
  Heap h;
  StaticsTable& st = h.statics();
  const std::uint32_t v = st.define("v", 41);
  const std::uint32_t w = st.define("w");
  EXPECT_EQ(st.get<int>(v), 41);
  EXPECT_EQ(st.get<int>(w), 0);
  st.set<int>(w, 17);
  EXPECT_EQ(st.get<int>(w), 17);
  EXPECT_EQ(st.name_of(v), "v");
  EXPECT_EQ(st.size(), 2u);
}

TEST(HeapTest, NoLoggingOutsideScheduler) {
  // Host code (no green thread) must never hit the logging slow path.
  Heap h;
  HeapObject* o = h.alloc("o", 1);
  o->set<int>(0, 5);
  EXPECT_EQ(o->get<int>(0), 5);  // and no crash dereferencing a null thread
}

TEST(HeapTest, LoggingOnlyInsideSynchronizedSection) {
  rt::Scheduler s;
  Heap h;
  HeapObject* o = h.alloc("o", 2);
  std::size_t logged_outside = 0, logged_inside = 0;
  s.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = s.current_thread();
    o->set<int>(0, 1);  // sync_depth == 0: fast path, no log
    logged_outside = t->undo_log.size();
    t->sync_depth = 1;  // simulate section entry (engine does this)
    rt::enter_section(t);
    o->set<int>(0, 2);
    o->set<int>(1, 3);
    logged_inside = t->undo_log.size();
    t->sync_depth = 0;
    rt::exit_section();
    t->undo_log.discard_all();
  });
  s.run();
  EXPECT_EQ(logged_outside, 0u);
  EXPECT_EQ(logged_inside, 2u);
}

TEST(HeapTest, EachStoreKindLogsOneEntryAndRollsBack) {
  // putfield, Xastore, putstatic and a volatile store each append exactly
  // one entry naming the slot they wrote, and replay restores all four.
  rt::Scheduler s;
  Heap h;
  HeapObject* o = h.alloc("o", 1);
  HeapArray<int>* arr = h.alloc_array<int>(4);
  const std::uint32_t sv = h.statics().define("sv", 3);
  VolatileVar<int> vol("vol", 4);
  o->set<int>(0, 1);
  arr->set(2, 2);
  s.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = s.current_thread();
    t->sync_depth = 1;
    rt::enter_section(t);
    const log::UndoLog& ul = t->undo_log;
    o->set<int>(0, 10);
    EXPECT_EQ(ul.size(), 1u);
    arr->set(2, 20);
    EXPECT_EQ(ul.size(), 2u);
    h.statics().set<int>(sv, 30);
    EXPECT_EQ(ul.size(), 3u);
    vol.store(40);
    EXPECT_EQ(ul.size(), 4u);
    for (std::size_t i = 0; i < ul.size(); ++i) {
      EXPECT_EQ(*ul.entry(i).addr, 10u * (i + 1)) << "entry " << i;
    }
    t->undo_log.rollback_to(0);
    t->sync_depth = 0;
    rt::exit_section();
  });
  s.run();
  EXPECT_EQ(o->get<int>(0), 1);
  EXPECT_EQ(arr->get(2), 2);
  EXPECT_EQ(h.statics().get<int>(sv), 3);
  EXPECT_EQ(vol.load(), 4);
}

TEST(HeapTest, UnloggedStoresSkipTheBarrier) {
  rt::Scheduler s;
  Heap h;
  HeapObject* o = h.alloc("o", 1);
  HeapArray<int>* arr = h.alloc_array<int>(2);
  s.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = s.current_thread();
    t->sync_depth = 1;
    rt::enter_section(t);
    o->set_word_unlogged(0, 1);
    arr->set_unlogged(0, 2);
    EXPECT_EQ(t->undo_log.size(), 0u);
    t->sync_depth = 0;
    rt::exit_section();
  });
  s.run();
  EXPECT_EQ(o->get<int>(0), 1);
  EXPECT_EQ(arr->get(0), 2);
}

TEST(HeapTest, WriterMarkStampedWhenTrackingEnabled) {
  rt::Scheduler s;
  test::FakeEngineLink link(s, /*marks_writes=*/true);
  Heap h;
  HeapObject* o = h.alloc("o", 1);
  s.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = s.current_thread();
    link.adopt(t);  // what the engine does when the thread registers
    t->sync_depth = 1;
    rt::enter_section(t);
    t->current_frame_id = 77;
    o->set<int>(0, 1);
    EXPECT_EQ(o->meta().writer_tid, t->id());
    EXPECT_EQ(o->meta().writer_frame, 77u);
    EXPECT_EQ(o->meta().writer_epoch, t->section_epoch);
    t->sync_depth = 0;
    rt::exit_section();
    t->undo_log.discard_all();
  });
  s.run();
}

TEST(HeapTest, WriterMarkNotStampedWhenTrackingDisabled) {
  rt::Scheduler s;
  test::FakeEngineLink link(s, /*marks_writes=*/false);
  Heap h;
  HeapObject* o = h.alloc("o", 1);
  s.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = s.current_thread();
    link.adopt(t);
    t->sync_depth = 1;
    rt::enter_section(t);
    o->set<int>(0, 1);
    EXPECT_EQ(o->meta().writer_tid, 0u);
    t->sync_depth = 0;
    rt::exit_section();
    t->undo_log.discard_all();
  });
  s.run();
}

TEST(HeapTest, TrackedReadHookFiresOnMarkedObject) {
  // Host code (no green thread, no shard) reaches the OS thread's engine.
  rt::Scheduler s;
  test::FakeEngineLink link(s);
  Heap h;
  HeapObject* o = h.alloc("o", 1);
  o->meta().writer_tid = 42;  // simulate a speculative writer
  (void)o->get<int>(0);
  EXPECT_EQ(link.tracked_reads, 1);
  (void)o->get<int>(0);  // mark cleared: fast path again
  EXPECT_EQ(link.tracked_reads, 1);
}

TEST(HeapTest, AccessesReachTheLinkOnlyWhileTheGateIsOpen) {
  // The access gate counts subscriptions to every engine in the process
  // (core::Engine::subscribe); while it reads zero, no access reaches any
  // link.  Host code's accesses go to the OS thread's engine.
  rt::Scheduler s;
  test::FakeEngineLink link(s);
  Heap h;
  HeapObject* o = h.alloc("o", 1);
  ASSERT_EQ(rt::detail::g_access_observers.load(), 0);
  o->set<int>(0, 1);
  (void)o->get<int>(0);
  EXPECT_EQ(link.accesses, 0);

  rt::detail::g_access_observers.fetch_add(1);  // some engine subscribed
  o->set<int>(0, 2);
  (void)o->get<int>(0);
  o->set_word_unlogged(0, 3);
  EXPECT_EQ(link.accesses, 3);
  s.spawn("t", rt::kNormPriority, [&] { (void)o->get<int>(0); });
  s.run();
  EXPECT_EQ(link.accesses, 4);  // a green thread's, via its scheduler
  rt::detail::g_access_observers.fetch_sub(1);

  o->set<int>(0, 4);
  EXPECT_EQ(link.accesses, 4);
}

TEST(HeapTest, VolatileVarRoundTrip) {
  VolatileVar<int> v("flag", 3);
  EXPECT_EQ(v.load(), 3);
  v.store(-9);
  EXPECT_EQ(v.load(), -9);
  EXPECT_EQ(v.name(), "flag");
}

TEST(HeapTest, UndoRestoresThroughRawLogReplay) {
  // End-to-end: logged stores through the barrier can be reverted by the
  // log, which is exactly what a revocation does.
  rt::Scheduler s;
  Heap h;
  HeapObject* o = h.alloc("o", 2);
  o->set<int>(0, 10);
  o->set<int>(1, 20);
  s.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = s.current_thread();
    t->sync_depth = 1;
    rt::enter_section(t);
    o->set<int>(0, 11);
    o->set<int>(1, 21);
    o->set<int>(0, 12);
    t->undo_log.rollback_to(0);
    t->sync_depth = 0;
    rt::exit_section();
  });
  s.run();
  EXPECT_EQ(o->get<int>(0), 10);
  EXPECT_EQ(o->get<int>(1), 20);
}

TEST(HeapTest, ObjectNamesAndCounts) {
  Heap h;
  h.alloc("first", 1);
  HeapObject* second = h.alloc("second", 3);
  EXPECT_EQ(h.object_count(), 2u);
  EXPECT_EQ(second->name(), "second");
  EXPECT_EQ(second->slot_count(), 3u);
}

}  // namespace
}  // namespace rvk::heap
