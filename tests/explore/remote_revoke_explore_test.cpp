// Bounded-exhaustive exploration of the cross-shard revocation race
// (DESIGN.md §16): a kRevoke mailbox message against a section that is
// committing locally.  The home shard services its mailbox from the
// dispatch loop (set_domain_poll), so every dispatch decision is a
// potential drain point — the explorer's schedule space IS the space of
// drain points relative to the owner's progress.  Exactly one of two
// outcomes is legal in every schedule: the revocation executes (rollback,
// probe occupancy undone, owner retries) or it is a counted drop (the
// requester raced the commit — DESIGN.md §16 calls this a legal stale
// request, never an error).  Bound-2 DFS must see BOTH outcomes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/revocable_monitor.hpp"
#include "explore/explorer.hpp"
#include "heap/heap.hpp"
#include "rt/domain.hpp"
#include "rt/mailbox.hpp"
#include "rt/scheduler.hpp"

namespace rvk::explore {
namespace {

struct Shared {
  heap::Heap heap;
  heap::HeapObject* probe = nullptr;  // occupancy slot: rolls back with m
  rt::VThread* owner = nullptr;
  int done = 0;  // bumped OUTSIDE sections: not undone
};

void enter_probe(rt::Scheduler& s, heap::HeapObject* o, int slot) {
  if (o->get<int>(slot) != 0) {
    throw std::runtime_error("mutual exclusion violated on probe slot " +
                             std::to_string(slot));
  }
  o->set<int>(slot, static_cast<int>(s.current_thread()->id()));
}

void exit_probe(heap::HeapObject* o, int slot) { o->set<int>(slot, 0); }

TEST(RemoteRevokeExploreTest, RevokeVsCommitBothOutcomesBound2Exhaustive) {
  std::uint64_t executed = 0;  // schedules where the revocation ran
  std::uint64_t dropped = 0;   // schedules where it raced the commit
  std::uint64_t rollbacks = 0;

  const Scenario scenario = [&](ScenarioContext& ctx) {
    rt::Scheduler& s = ctx.sched();
    core::Engine& e = ctx.engine();
    core::RevocableMonitor* m = e.make_monitor("m");
    Shared* st = ctx.make<Shared>();
    st->probe = st->heap.alloc("probe", 1);

    // A standalone Domain playing "the owner's mailbox": no DomainSet, no
    // OS thread — just one sender's ring, the pending list and the
    // counters.  Its revoker re-enters the scenario engine, exactly like
    // the one core::Engine installs on its shard.
    rt::Domain* d = ctx.make<rt::Domain>(nullptr, 0, /*senders=*/1,
                                         rt::SchedulerConfig{});
    d->set_revoker([&e](rt::VThread* owner, void* mon, int boost_to) {
      return e.request_revocation(
          owner, *static_cast<core::RevocableMonitor*>(mon),
          /*deadlock=*/false, boost_to);
    });
    // The scenario scheduler is the home shard: its dispatch loop drains
    // the mailbox, so the message is serviced at the first dispatch after
    // the post — wherever the explorer placed that dispatch.
    s.set_domain_poll([d] { d->drain_and_service(); });

    st->owner = s.spawn("L", 2, [&s, &e, m, st] {
      e.synchronized(*m, [&] {
        enter_probe(s, st->probe, 0);
        s.yield_point();
        s.yield_point();
        exit_probe(st->probe, 0);
      });
      ++st->done;
    });
    s.spawn("H", 8, [&s, d, m, st] {
      s.yield_point();  // let schedules vary how far L got first
      rt::Message msg;
      msg.kind = rt::Message::Kind::kRevoke;
      msg.from = 0;
      msg.thread = st->owner;
      msg.monitor = m;
      msg.priority = 8;
      d->post(msg);
      // The dispatch-loop poll only runs when something still dispatches:
      // yield once so the post is never the process's final act.
      s.yield_point();
      ++st->done;
    });

    ctx.after_run([&, d, st] {
      if (st->done != 2) {
        throw std::runtime_error("only " + std::to_string(st->done) +
                                 " of 2 threads completed");
      }
      // The poll drains at every dispatch, so the one message is always
      // fully serviced by quiescence — as exactly one of the two legal
      // outcomes.
      if (d->inbound_work() != 0) {
        throw std::runtime_error("kRevoke still in flight at quiescence");
      }
      if (d->revokes_executed() + d->dropped() != 1) {
        throw std::runtime_error(
            "kRevoke neither executed nor counted as dropped");
      }
      executed += d->revokes_executed();
      dropped += d->dropped();
      rollbacks += ctx.engine().stats().rollbacks_completed;
    });
  };

  ExploreOptions o;
  o.mode = Mode::kExhaustive;
  o.preemption_bound = 2;
  o.name = "remote_revoke_vs_local_commit";
  const ExploreResult r = explore(scenario, o);
  EXPECT_FALSE(r.failed) << r.failure << "\n" << r.failure_trace;
  EXPECT_TRUE(r.complete);  // the bound-2 space is fully enumerated
  EXPECT_GT(r.schedules, 1u);
  EXPECT_EQ(executed + dropped, r.schedules);
  // The race is real: some schedules revoke a live section (with at least
  // one completed rollback among them), others arrive after the commit.
  EXPECT_GT(executed, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(rollbacks, 0u);
}

}  // namespace
}  // namespace rvk::explore
