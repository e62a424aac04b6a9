// Non-revocability rules (§2.2): escaped read-write dependencies, volatile
// variables, native calls, and Object.wait() all disable revocation of the
// affected monitors — "as a consequence, not all instances of priority
// inversion can be resolved".
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "heap/volatile_var.hpp"
#include "rt/scheduler.hpp"

namespace rvk::core {
namespace {

struct Fixture {
  explicit Fixture(EngineConfig cfg = {}, rt::SchedulerConfig scfg = {})
      : sched(scfg), engine(sched, cfg) {}
  rt::Scheduler sched;
  Engine engine;
  heap::Heap heap;
};

TEST(NonRevocableTest, NativeCallPinsSection) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  int lo_runs = 0;
  std::vector<char> order;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++lo_runs;
      NativeCallScope native(fx.engine);  // e.g. prints to the console
      for (int i = 0; i < 1000; ++i) fx.sched.yield_point();
    });
    order.push_back('l');
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [] {});
    order.push_back('h');
  });
  fx.sched.run();
  EXPECT_EQ(lo_runs, 1);  // never revoked
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'l');  // hi had to wait: classical inversion persists
  const EngineStats& st = fx.engine.stats();
  EXPECT_GE(st.revocations_denied_pinned, 1u);
  EXPECT_EQ(st.rollbacks_completed, 0u);
  EXPECT_GE(st.frames_pinned, 1u);
}

TEST(NonRevocableTest, NativeCallInNestedSectionPinsEnclosing) {
  // §2.2: a native method pins the monitor "and all of its enclosing
  // monitors if it is nested".
  Fixture fx;
  RevocableMonitor* outer = fx.engine.make_monitor("outer");
  RevocableMonitor* inner = fx.engine.make_monitor("inner");
  int outer_runs = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*outer, [&] {
      ++outer_runs;
      fx.engine.synchronized(*inner, [&] {
        NativeCallScope native(fx.engine);
      });
      for (int i = 0; i < 1000; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*outer, [] {});  // contends on the OUTER monitor
  });
  fx.sched.run();
  EXPECT_EQ(outer_runs, 1);  // outer could not be revoked either
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 0u);
}

TEST(NonRevocableTest, EscapedDependencyPinsWriter) {
  // Figure 2's scenario, resolved the way §2.2 prescribes: T writes v under
  // (outer, inner); T' reads v under inner alone after T released inner.
  // The read creates a dependency on T's still-active OUTER section, which
  // must therefore refuse revocation.
  Fixture fx;
  RevocableMonitor* outer = fx.engine.make_monitor("outer");
  RevocableMonitor* inner = fx.engine.make_monitor("inner");
  heap::HeapObject* v = fx.heap.alloc("v", 1);
  int t_runs = 0;
  std::uint64_t tprime_saw = 1234;
  std::vector<char> order;
  fx.sched.spawn("T", 2, [&] {
    fx.engine.synchronized(*outer, [&] {
      ++t_runs;
      fx.engine.synchronized(*inner, [&] { v->set<int>(0, 42); });
      // inner released: the write is visible to inner-synchronized readers
      for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
    });
    order.push_back('T');
  });
  fx.sched.spawn("Tprime", 5, [&] {
    fx.sched.sleep_for(30);
    fx.engine.synchronized(*inner, [&] {
      tprime_saw = static_cast<std::uint64_t>(v->get<int>(0));
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(100);  // after T' created the dependency
    fx.engine.synchronized(*outer, [] {});  // wants to revoke T's outer
    order.push_back('h');
  });
  fx.sched.run();
  EXPECT_EQ(tprime_saw, 42u);  // JMM-allowed read
  EXPECT_EQ(t_runs, 1);        // outer pinned: no rollback, no thin air
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'T');    // hi waited out the section
  const EngineStats& st = fx.engine.stats();
  EXPECT_GE(st.foreign_reads_observed, 1u);
  EXPECT_GE(st.frames_pinned, 1u);
  EXPECT_GE(st.revocations_denied_pinned, 1u);
}

TEST(NonRevocableTest, DependencyDoesNotPinWhenReaderIsWriter) {
  // A thread re-reading its own speculative writes creates no dependency.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  int lo_runs = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++lo_runs;
      o->set<int>(0, 1);
      for (int i = 0; i < 1500; ++i) {
        (void)o->get<int>(0);  // own speculation: harmless
        fx.sched.yield_point();
      }
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  EXPECT_EQ(lo_runs, 2);  // still revocable
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 1u);
}

TEST(NonRevocableTest, StaleWriterMarkIsClearedAndHarmless) {
  // After the writer's section commits, its mark on the object is stale; a
  // later reader must not pin anything and the mark self-heals.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  fx.sched.spawn("writer", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] { o->set<int>(0, 9); });
  });
  fx.sched.spawn("reader", rt::kNormPriority, [&] {
    fx.sched.sleep_for(50);  // writer is long done
    EXPECT_EQ(o->get<int>(0), 9);
    EXPECT_EQ(o->meta().writer_tid, 0u);  // cleared by the read hook
  });
  fx.sched.run();
  EXPECT_EQ(fx.engine.stats().frames_pinned, 0u);
  EXPECT_EQ(fx.engine.stats().foreign_reads_observed, 0u);
}

TEST(NonRevocableTest, VolatilePreciseDependencyPins) {
  // Figure 3: T writes a volatile inside its section; T' reads it with no
  // monitor at all.  The pin happens at the foreign read.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::VolatileVar<int> vol("vol");
  int t_runs = 0;
  int tprime_saw = -1;
  fx.sched.spawn("T", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++t_runs;
      vol.store(7);
      for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.spawn("Tprime", 5, [&] {
    fx.sched.sleep_for(30);
    tprime_saw = vol.load();  // unmonitored volatile read
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(100);
    fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  EXPECT_EQ(tprime_saw, 7);
  EXPECT_EQ(t_runs, 1);  // pinned by the volatile dependency: no rollback
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 0u);
}

TEST(NonRevocableTest, VolatileWithoutForeignReadStaysRevocable) {
  // A volatile write nobody observed does not pin.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::VolatileVar<int> vol("vol");
  int t_runs = 0;
  fx.sched.spawn("T", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++t_runs;
      vol.store(7);
      for (int i = 0; i < 1500; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  EXPECT_EQ(t_runs, 2);  // revoked and re-run
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 1u);
  // The rolled-back volatile write was restored.
  EXPECT_EQ(vol.load(), 7);  // final committed value from the re-run
}

TEST(NonRevocableTest, WaitPinsSection) {
  // §2.2: revoking a completed wait() would make the matching notify
  // "disappear"; the waiting section becomes non-revocable.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  RevocableMonitor* cond = fx.engine.make_monitor("cond");
  int waiter_runs = 0;
  std::vector<char> order;
  fx.sched.spawn("waiter", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++waiter_runs;
      fx.engine.synchronized(*cond, [&] { cond->wait(); });
      for (int i = 0; i < 1000; ++i) fx.sched.yield_point();
    });
    order.push_back('w');
  });
  fx.sched.spawn("notifier", 5, [&] {
    fx.sched.sleep_for(30);
    fx.engine.synchronized(*cond, [&] { cond->notify_one(); });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(100);
    fx.engine.synchronized(*m, [] {});
    order.push_back('h');
  });
  fx.sched.run();
  EXPECT_EQ(waiter_runs, 1);  // wait() pinned m's section: no revocation
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'w');
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 0u);
}

TEST(NonRevocableTest, NotifyDoesNotPin) {
  // §2.2: "A call to notify does not enforce the irrevocability of the
  // enclosing monitors" — a rolled-back notification is a legal spurious
  // wakeup.  The woken waiter (priority 5) contends with the notifying
  // section's owner (priority 2) and successfully revokes it: had notify
  // pinned the section, the request would have been refused.
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  int lo_runs = 0;
  bool waiter_woke = false;
  fx.sched.spawn("waiter", 5, [&] {
    fx.engine.synchronized(*m, [&] { m->wait(); });
    waiter_woke = true;  // woken by a notify that was later rolled back:
                         // a legal spurious wakeup
  });
  fx.sched.spawn("lo", 2, [&] {
    fx.sched.sleep_for(20);
    fx.engine.synchronized(*m, [&] {
      ++lo_runs;
      m->notify_one();
      for (int i = 0; i < 2000; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.run();
  EXPECT_EQ(lo_runs, 2);  // notify did not pin: lo was revoked and re-ran
  EXPECT_GE(fx.engine.stats().rollbacks_completed, 1u);
  EXPECT_TRUE(waiter_woke);
}

TEST(NonRevocableTest, ManualPin) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  int lo_runs = 0;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*m, [&] {
      ++lo_runs;
      fx.engine.pin_current_frames(PinReason::kManual);
      for (int i = 0; i < 1000; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  EXPECT_EQ(lo_runs, 1);
  EXPECT_EQ(fx.engine.stats().rollbacks_completed, 0u);
}

TEST(NonRevocableTest, RevocationTargetsOldestFrameOfContendedMonitor) {
  // Revocation targets the oldest frame guarding the CONTENDED monitor, not
  // the whole stack: lo nests outer→inner and hi contends INNER, so only
  // the inner section is unwound and re-run — outer's frame (and its
  // speculative writes) survive the rollback untouched.
  Fixture fx;
  RevocableMonitor* outer = fx.engine.make_monitor("outer");
  RevocableMonitor* inner = fx.engine.make_monitor("inner");
  heap::HeapObject* o_out = fx.heap.alloc("o_out", 1);
  heap::HeapObject* o_in = fx.heap.alloc("o_in", 1);
  int outer_runs = 0;
  int inner_runs = 0;
  int hi_saw_inner = -1;
  std::vector<char> order;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*outer, [&] {
      ++outer_runs;
      o_out->set<int>(0, 7);
      fx.engine.synchronized(*inner, [&] {
        ++inner_runs;
        o_in->set<int>(0, 9);
        for (int i = 0; i < 1000; ++i) fx.sched.yield_point();
      });
      order.push_back('i');  // inner committed (on the re-run)
    });
    order.push_back('l');
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*inner, [&] {
      hi_saw_inner = o_in->get<int>(0);
    });
    order.push_back('h');
  });
  fx.sched.run();
  EXPECT_EQ(inner_runs, 2);  // revoked and re-run
  EXPECT_EQ(outer_runs, 1);  // enclosing frame untouched by the unwind
  EXPECT_EQ(hi_saw_inner, 0);  // inner's speculative write was undone...
  EXPECT_EQ(o_out->get<int>(0), 7);  // ...but outer's survived the rollback
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 'h');  // hi entered inner before lo's re-run finished
  const EngineStats& st = fx.engine.stats();
  EXPECT_EQ(st.rollbacks_completed, 1u);
  EXPECT_EQ(st.frames_aborted, 1u);  // ONLY the inner frame was unwound
}

TEST(NonRevocableTest, RecursiveEntryRevocationUnwindsToOldestFrame) {
  // A recursive re-entry pushes its own frame; contending the recursively
  // held monitor must unwind back to the OLDEST frame of that monitor (the
  // outermost entry) so the monitor is fully released — every frame between
  // is aborted along the way.
  Fixture fx;
  RevocableMonitor* a = fx.engine.make_monitor("a");
  RevocableMonitor* b = fx.engine.make_monitor("b");
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  int a_outer_runs = 0, b_runs = 0, a_again_runs = 0;
  int hi_saw = -1;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*a, [&] {
      ++a_outer_runs;
      o->set<int>(0, 1);
      fx.engine.synchronized(*b, [&] {
        ++b_runs;
        fx.engine.synchronized(*a, [&] {  // recursive re-entry of `a`
          ++a_again_runs;
          for (int i = 0; i < 1000; ++i) fx.sched.yield_point();
        });
      });
    });
  });
  fx.sched.spawn("hi", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*a, [&] { hi_saw = o->get<int>(0); });
  });
  fx.sched.run();
  EXPECT_EQ(a_outer_runs, 2);  // unwound all the way to a's oldest frame
  EXPECT_EQ(b_runs, 2);
  EXPECT_EQ(a_again_runs, 2);
  EXPECT_EQ(hi_saw, 0);  // the outermost frame's write was undone too
  const EngineStats& st = fx.engine.stats();
  EXPECT_EQ(st.rollbacks_completed, 1u);
  EXPECT_EQ(st.frames_aborted, 3u);  // a(outer) + b + a(recursive)
}

TEST(NonRevocableTest, PinnedInnerFrameDeniesRevocationOfBothMonitors) {
  // §2.2 upward closure, checked against BOTH monitors of a nest: a native
  // call inside the inner section pins inner AND its enclosing outer frame,
  // so contention on either monitor is denied while lo is inside.
  Fixture fx;
  RevocableMonitor* a = fx.engine.make_monitor("a");
  RevocableMonitor* b = fx.engine.make_monitor("b");
  int a_runs = 0, b_runs = 0;
  std::vector<char> order;
  fx.sched.spawn("lo", 2, [&] {
    fx.engine.synchronized(*a, [&] {
      ++a_runs;
      fx.engine.synchronized(*b, [&] {
        ++b_runs;
        NativeCallScope native(fx.engine);  // pins b and, upward, a
        for (int i = 0; i < 1000; ++i) fx.sched.yield_point();
      });
      for (int i = 0; i < 500; ++i) fx.sched.yield_point();
    });
    order.push_back('l');
  });
  fx.sched.spawn("hi_b", 8, [&] {
    fx.sched.sleep_for(30);  // lo is inside b: contend the pinned inner
    fx.engine.synchronized(*b, [] {});
    order.push_back('b');
  });
  fx.sched.spawn("hi_a", 9, [&] {
    fx.sched.sleep_for(60);  // contend the transitively pinned outer
    fx.engine.synchronized(*a, [] {});
    order.push_back('a');
  });
  fx.sched.run();
  EXPECT_EQ(a_runs, 1);  // neither section ever re-ran
  EXPECT_EQ(b_runs, 1);
  ASSERT_EQ(order.size(), 3u);
  // hi_b was denied while lo sat pinned inside b, and only got b after the
  // inner section committed; hi_a had to wait out the whole outer section.
  EXPECT_EQ(order[0], 'b');
  EXPECT_EQ(order[1], 'l');
  EXPECT_EQ(order[2], 'a');
  const EngineStats& st = fx.engine.stats();
  EXPECT_GE(st.revocations_denied_pinned, 2u);  // one denial per monitor
  EXPECT_EQ(st.rollbacks_completed, 0u);
}

TEST(NonRevocableTest, JmmGuardOffSkipsDependencyTracking) {
  // The guard can be disabled for workloads whose shared accesses are all
  // monitor-mediated (like the paper's micro-benchmark); the ablation
  // benchmark measures what that saves.
  EngineConfig cfg;
  cfg.jmm_guard = false;
  Fixture fx(cfg);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [&] { o->set<int>(0, 3); });
  });
  fx.sched.run();
  EXPECT_EQ(o->meta().writer_tid, 0u);  // no marks maintained
  EXPECT_EQ(fx.engine.stats().foreign_reads_observed, 0u);
}

}  // namespace
}  // namespace rvk::core
