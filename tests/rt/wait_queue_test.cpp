// WaitQueue: priority ordering with FIFO fairness within a level (§4's
// prioritized monitor queues).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "monitor/monitor.hpp"
#include "rt/scheduler.hpp"

namespace rvk::rt {
namespace {

// Queue payloads are detached control blocks (never spawned, never run):
// spawning would link them into the scheduler's ready queue, and a thread
// can sit in at most one intrusive queue at a time.
class WaitQueueTest : public ::testing::Test {
 protected:
  VThread* make_thread(int priority) {
    threads_.push_back(std::make_unique<VThread>(&sched_));
    threads_.back()->set_priority(priority);
    return threads_.back().get();
  }

  Scheduler sched_;
  std::vector<std::unique_ptr<VThread>> threads_;
};

TEST_F(WaitQueueTest, EmptyQueue) {
  WaitQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.pop_best(), nullptr);
  EXPECT_EQ(q.peek_best(), nullptr);
  EXPECT_FALSE(q.has_waiter_above(0));
}

TEST_F(WaitQueueTest, PopsHighestPriorityFirst) {
  WaitQueue q;
  VThread* lo = make_thread(2);
  VThread* hi = make_thread(8);
  VThread* mid = make_thread(5);
  q.push(lo);
  q.push(hi);
  q.push(mid);
  EXPECT_EQ(q.pop_best(), hi);
  EXPECT_EQ(q.pop_best(), mid);
  EXPECT_EQ(q.pop_best(), lo);
  EXPECT_TRUE(q.empty());
}

TEST_F(WaitQueueTest, FifoWithinPriorityLevel) {
  WaitQueue q;
  VThread* first = make_thread(5);
  VThread* second = make_thread(5);
  VThread* third = make_thread(5);
  q.push(first);
  q.push(second);
  q.push(third);
  EXPECT_EQ(q.pop_best(), first);
  EXPECT_EQ(q.pop_best(), second);
  EXPECT_EQ(q.pop_best(), third);
}

TEST_F(WaitQueueTest, PeekDoesNotRemove) {
  WaitQueue q;
  VThread* hi = make_thread(9);
  q.push(make_thread(1));
  q.push(hi);
  EXPECT_EQ(q.peek_best(), hi);
  EXPECT_EQ(q.size(), 2u);
}

TEST_F(WaitQueueTest, RemoveSpecificThread) {
  WaitQueue q;
  VThread* a = make_thread(3);
  VThread* b = make_thread(7);
  q.push(a);
  q.push(b);
  EXPECT_TRUE(q.remove(a));
  EXPECT_FALSE(q.remove(a));  // already gone
  EXPECT_EQ(q.pop_best(), b);
}

TEST_F(WaitQueueTest, HasWaiterAbove) {
  WaitQueue q;
  q.push(make_thread(4));
  q.push(make_thread(6));
  EXPECT_TRUE(q.has_waiter_above(5));
  EXPECT_TRUE(q.has_waiter_above(3));
  EXPECT_FALSE(q.has_waiter_above(6));
  EXPECT_FALSE(q.has_waiter_above(10));
}

// ---- reposition(): priority changes while queued (set_priority re-buckets
// in place; priority inheritance boosts holders that may themselves be
// parked in some queue) ----

TEST_F(WaitQueueTest, SetPriorityWhileQueuedRebuckets) {
  WaitQueue q;
  VThread* a = make_thread(5);
  VThread* b = make_thread(5);
  VThread* c = make_thread(5);
  q.push(a);
  q.push(b);
  q.push(c);
  c->set_priority(9);
  EXPECT_EQ(q.pop_best(), c);
  EXPECT_EQ(q.pop_best(), a);
  EXPECT_EQ(q.pop_best(), b);
}

TEST_F(WaitQueueTest, RepositionPreservesArrivalOrderInDestinationBucket) {
  WaitQueue q;
  VThread* early = make_thread(5);
  VThread* late = make_thread(9);
  q.push(early);  // arrival seq 0
  q.push(late);   // arrival seq 1
  early->set_priority(9);
  // Boosting `early` to the same level as `late` must not make it younger:
  // ties at a level are broken by original arrival order, exactly as the
  // old scan-the-whole-queue pop did.
  EXPECT_EQ(q.pop_best(), early);
  EXPECT_EQ(q.pop_best(), late);
}

TEST_F(WaitQueueTest, SetPriorityDownwardWhileQueued) {
  WaitQueue q;
  VThread* hi = make_thread(9);
  VThread* lo = make_thread(5);
  q.push(hi);
  q.push(lo);
  hi->set_priority(3);
  EXPECT_TRUE(q.has_waiter_above(4));
  EXPECT_EQ(q.pop_best(), lo);
  EXPECT_EQ(q.pop_best(), hi);
}

TEST_F(WaitQueueTest, SetPriorityOffQueueDoesNotTouchAnyQueue) {
  WaitQueue q;
  VThread* a = make_thread(5);
  a->set_priority(8);  // not queued anywhere: must be a plain field update
  q.push(a);
  EXPECT_EQ(q.peek_best(), a);
  EXPECT_TRUE(q.has_waiter_above(7));
}

TEST_F(WaitQueueTest, FifoPreservedAcrossInterleavedPriorities) {
  WaitQueue q;
  VThread* lo1 = make_thread(2);
  VThread* hi1 = make_thread(8);
  VThread* lo2 = make_thread(2);
  VThread* hi2 = make_thread(8);
  q.push(lo1);
  q.push(hi1);
  q.push(lo2);
  q.push(hi2);
  EXPECT_EQ(q.pop_best(), hi1);
  EXPECT_EQ(q.pop_best(), hi2);
  EXPECT_EQ(q.pop_best(), lo1);
  EXPECT_EQ(q.pop_best(), lo2);
}

// ---- Hand-offs (push_handoff): ahead of ordinary waiters, FIFO among
// themselves, and at most one group past each gate ----

TEST_F(WaitQueueTest, HandOffsLeadOrdinaryWaitersInArrivalOrder) {
  WaitQueue q(WaitQueue::Order::kFifo);
  VThread* o1 = make_thread(5);
  VThread* o2 = make_thread(5);
  VThread* h1 = make_thread(5);
  VThread* h2 = make_thread(5);
  q.push(o1);
  q.push(o2);
  q.push_handoff(h1);
  q.push_handoff(h2);
  EXPECT_EQ(q.pop_best(), h1);
  EXPECT_EQ(q.pop_best(), h2);
  EXPECT_EQ(q.pop_best(), o1);
  EXPECT_EQ(q.pop_best(), o2);
  EXPECT_TRUE(q.empty());
}

TEST_F(WaitQueueTest, HandOffAfterTheGateWasPassedQueuesBehindIt) {
  WaitQueue q(WaitQueue::Order::kFifo);
  VThread* gate = make_thread(5);
  VThread* o2 = make_thread(5);
  VThread* h1 = make_thread(5);
  VThread* h2 = make_thread(5);
  VThread* h3 = make_thread(5);
  VThread* h4 = make_thread(5);
  q.push(gate);
  q.push(o2);
  q.push_handoff(h1);
  EXPECT_EQ(q.pop_best(), h1);  // passes the gate: the bucket is sealed
  q.push_handoff(h2);
  q.push_handoff(h3);
  // The gate runs before the later hand-offs, and they run before o2.
  EXPECT_EQ(q.pop_best(), gate);
  q.push_handoff(h4);  // the new gate (o2) was not passed yet
  EXPECT_EQ(q.pop_best(), h2);
  EXPECT_EQ(q.pop_best(), h3);
  EXPECT_EQ(q.pop_best(), h4);
  EXPECT_EQ(q.pop_best(), o2);
  EXPECT_TRUE(q.empty());
}

TEST_F(WaitQueueTest, RemovingTheGateLetsDeferredHandOffsLead) {
  WaitQueue q(WaitQueue::Order::kFifo);
  VThread* gate = make_thread(5);
  VThread* o2 = make_thread(5);
  VThread* h1 = make_thread(5);
  VThread* h2 = make_thread(5);
  VThread* h3 = make_thread(5);
  q.push(gate);
  q.push(o2);
  q.push_handoff(h1);
  q.push_handoff(h2);
  EXPECT_EQ(q.pop_best(), h1);
  q.push_handoff(h3);  // sealed: behind the gate
  EXPECT_TRUE(q.remove(gate));
  EXPECT_EQ(q.pop_best(), h2);
  EXPECT_EQ(q.pop_best(), h3);
  EXPECT_EQ(q.pop_best(), o2);
  EXPECT_TRUE(q.empty());
}

TEST_F(WaitQueueTest, HandOffsKeepTheirPlaceAcrossRebucketing) {
  WaitQueue q;
  VThread* o9 = make_thread(9);
  VThread* o5 = make_thread(5);
  VThread* h5 = make_thread(5);
  VThread* h9 = make_thread(9);
  q.push(o9);
  q.push(o5);
  q.push_handoff(h5);
  q.push_handoff(h9);
  o5->set_priority(9);  // ordinary: re-enters behind level 9's hand-offs
  h5->set_priority(9);  // hand-off: joins the end of level 9's hand-offs
  EXPECT_EQ(q.pop_best(), h9);
  EXPECT_EQ(q.pop_best(), h5);
  EXPECT_EQ(q.pop_best(), o9);
  EXPECT_EQ(q.pop_best(), o5);
  EXPECT_TRUE(q.empty());
}

// ---- Monitor wakeup order rides on the same structure: regression that
// contended acquisition still hands off by priority, FIFO within a level
// (§4: "When a thread releases a monitor, another thread is scheduled from
// the queue" in priority order) ----

TEST(MonitorWakeupOrderTest, ReleaseWakesByPriorityThenFifo) {
  Scheduler s;
  monitor::BlockingMonitor m("m");
  std::vector<std::string> order;
  s.spawn("holder", kNormPriority, [&] {
    m.acquire();
    // Let every contender run up to its blocking acquire.
    for (int i = 0; i < 20; ++i) s.yield_now();
    m.release();
  });
  for (const auto& [name, prio] :
       {std::pair<const char*, int>{"lo1", 2}, {"hi1", 8}, {"lo2", 2},
        {"hi2", 8}, {"mid", 5}}) {
    s.spawn(name, prio, [&m, &order, name = std::string(name)] {
      m.acquire();
      order.push_back(name);
      m.release();
    });
  }
  s.run();
  // Highest priority first; FIFO among equals (hi1 before hi2, lo1 before
  // lo2) — byte-identical to the pre-bitmap linear-scan behaviour.
  EXPECT_EQ(order, (std::vector<std::string>{"hi1", "hi2", "mid", "lo1",
                                             "lo2"}));
}

}  // namespace
}  // namespace rvk::rt
