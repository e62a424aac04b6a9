// Scheduler shards (DESIGN.md §16): mailbox SPSC ring semantics, one ring
// per sender of the set, RVK_SHARDS parsing, cooperative round-robin shard
// multiplexing, remote call plumbing, OS-thread mode, and virtual-clock
// determinism of the cooperative mode (the property the exploration
// harness and the deterministic suite lean on).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "log/undo_log.hpp"
#include "rt/domain.hpp"
#include "rt/mailbox.hpp"
#include "rt/scheduler.hpp"
#include "rt/stack.hpp"

namespace rvk::rt {
namespace {

TEST(MailboxTest, FifoAndCapacity) {
  Mailbox box;
  EXPECT_TRUE(box.empty());
  for (std::size_t i = 0; i < Mailbox::kCapacity; ++i) {
    Message m;
    m.from = static_cast<std::uint16_t>(i);
    ASSERT_TRUE(box.try_push(m)) << i;
  }
  Message overflow;
  EXPECT_FALSE(box.try_push(overflow));  // full ring refuses, never blocks
  Message out;
  for (std::size_t i = 0; i < Mailbox::kCapacity; ++i) {
    ASSERT_TRUE(box.try_pop(out));
    EXPECT_EQ(out.from, i);  // strict FIFO
  }
  EXPECT_FALSE(box.try_pop(out));
  EXPECT_TRUE(box.empty());
  // Wrap-around: the ring indexes modulo capacity.
  for (int round = 0; round < 3; ++round) {
    Message m;
    m.from = static_cast<std::uint16_t>(1000 + round);
    ASSERT_TRUE(box.try_push(m));
    ASSERT_TRUE(box.try_pop(out));
    EXPECT_EQ(out.from, 1000 + round);
  }
}

struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  const char* name_;
  bool had_;
  std::string old_;
};

TEST(DomainSetTest, EnvShardsParsesAndClamps) {
  {
    ScopedEnv e("RVK_SHARDS", nullptr);
    EXPECT_EQ(DomainSet::env_shards(), 1u);  // unset: classic runtime
  }
  {
    ScopedEnv e("RVK_SHARDS", "3");
    EXPECT_EQ(DomainSet::env_shards(), 3u);
  }
  {
    ScopedEnv e("RVK_SHARDS", "0");
    EXPECT_EQ(DomainSet::env_shards(), 1u);  // clamped up
  }
  {
    ScopedEnv e("RVK_SHARDS", "9999");
    EXPECT_EQ(DomainSet::env_shards(), Domain::kMaxShards);  // clamped down
  }
}

TEST(DomainSetTest, ShardThreadIdsAreDisjoint) {
  DomainSet::Config cfg;
  cfg.shards = 2;
  DomainSet set(cfg);
  std::uint32_t id0 = 0;
  std::uint32_t id1 = 0;
  set.with_domain(0, [&](Domain& d) {
    id0 = d.sched().spawn("a", 5, [] {})->id();
    d.sched().run();
  });
  set.with_domain(1, [&](Domain& d) {
    id1 = d.sched().spawn("b", 5, [] {})->id();
    d.sched().run();
  });
  EXPECT_EQ(id0, 1u);  // shard 0 keeps the classic numbering
  EXPECT_EQ(id1, 1u + (1u << 20));
}

TEST(DomainTest, CurrentDomainFollowsWithDomain) {
  DomainSet::Config cfg;
  cfg.shards = 2;
  DomainSet set(cfg);
  EXPECT_EQ(current_domain(), nullptr);
  set.with_domain(1, [&](Domain& d) { EXPECT_EQ(current_domain(), &d); });
  EXPECT_EQ(current_domain(), nullptr);
}

TEST(DomainSetTest, CooperativeRemoteCallPingPong) {
  DomainSet::Config cfg;
  cfg.shards = 2;
  DomainSet set(cfg);
  // One counter per shard, bumped only by vthreads of its home shard —
  // cross-shard increments travel as shipped sections.
  int count[2] = {0, 0};
  set.run([&](Domain& d) {
    const std::uint16_t me = d.id();
    const std::uint16_t peer = static_cast<std::uint16_t>(1 - me);
    d.sched().spawn("worker", 5, [&set, &count, me, peer] {
      for (int i = 0; i < 3; ++i) {
        set.remote_call(peer, 5, "bump", [&count, peer] { ++count[peer]; });
      }
      // Same-shard remote call runs inline (the RVK_SHARDS=1 identity):
      // the bump is visible the moment the call returns.
      const int before = count[me];
      set.remote_call(me, 5, "self", [&count, me] { ++count[me]; });
      EXPECT_EQ(count[me], before + 1);
    });
  });
  EXPECT_EQ(count[0], 3 + 1);  // 3 from shard 1, 1 inline self-bump
  EXPECT_EQ(count[1], 3 + 1);
  EXPECT_FALSE(set.deadlocked());
  EXPECT_EQ(set.domain(0).inbound_work(), 0u);
  EXPECT_EQ(set.domain(1).inbound_work(), 0u);
}

TEST(DomainSetTest, RemoteCallPropagatesFailure) {
  DomainSet::Config cfg;
  cfg.shards = 2;
  DomainSet set(cfg);
  bool caught = false;
  set.run([&](Domain& d) {
    if (d.id() != 0) return;
    d.sched().spawn("thrower", 5, [&set, &caught] {
      try {
        set.remote_call(1, 5, "boom",
                        [] { throw std::runtime_error("remote boom"); });
      } catch (const std::runtime_error& e) {
        caught = true;
        EXPECT_STREQ(e.what(), "remote boom");
      }
    });
  });
  EXPECT_TRUE(caught);
}

// One deterministic cross-shard workload; returns per-shard virtual-clock
// spans plus the counters, so callers can compare entire runs.
struct RunShape {
  std::uint64_t span[2] = {0, 0};
  std::uint64_t dispatches[2] = {0, 0};
  int count[2] = {0, 0};
  bool operator==(const RunShape& o) const {
    return span[0] == o.span[0] && span[1] == o.span[1] &&
           dispatches[0] == o.dispatches[0] &&
           dispatches[1] == o.dispatches[1] && count[0] == o.count[0] &&
           count[1] == o.count[1];
  }
};

RunShape run_cooperative_workload() {
  DomainSet::Config cfg;
  cfg.shards = 2;
  RunShape shape;
  DomainSet set(cfg);
  set.run(
      [&](Domain& d) {
        const std::uint16_t me = d.id();
        const std::uint16_t peer = static_cast<std::uint16_t>(1 - me);
        for (int w = 0; w < 2; ++w) {
          d.sched().spawn(std::string("w").append(std::to_string(w)), 3 + w,
                          [&set, &shape, me, peer, w] {
                            for (int i = 0; i < 2 + w; ++i) {
                              set.remote_call(peer, 3 + w, "bump",
                                              [&shape, peer] {
                                                ++shape.count[peer];
                                              });
                            }
                          });
        }
      },
      [&](Domain& d) {
        shape.span[d.id()] = d.sched().now();
        shape.dispatches[d.id()] = d.sched().dispatches();
      });
  return shape;
}

TEST(DomainSetTest, CooperativeModeIsDeterministic) {
  // The virtual-clock contract of the cooperative mode: identical
  // construction gives an identical interleaving, tick for tick.  (The
  // kOsThreads mode deliberately does not promise this — message arrival
  // order there is OS timing.)
  const RunShape a = run_cooperative_workload();
  const RunShape b = run_cooperative_workload();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.count[0], 2 + 3);  // 2 from w0, 3 from w1 of the peer shard
  EXPECT_EQ(a.count[1], 2 + 3);
  // Parked remote calls do not advance the virtual clock, so assert on
  // dispatches (which every helper and wakeup costs), not ticks.
  EXPECT_GT(a.dispatches[0], 0u);
}

TEST(DomainSetTest, OsThreadsModeCompletesCrossTraffic) {
  DomainSet::Config cfg;
  cfg.shards = 2;
  cfg.mode = DomainSet::Mode::kOsThreads;
  DomainSet set(cfg);
  int count[2] = {0, 0};  // still home-shard-only mutation
  set.start([&](Domain& d) {
    const std::uint16_t me = d.id();
    const std::uint16_t peer = static_cast<std::uint16_t>(1 - me);
    d.sched().spawn("worker", 5, [&set, &count, me, peer] {
      for (int i = 0; i < 25; ++i) {
        set.remote_call(peer, 5, "bump", [&count, peer] { ++count[peer]; });
        set.remote_call(me, 5, "self", [&count, me] { ++count[me]; });
      }
    });
  });
  set.join();  // join() gives the happens-before for reading the counters
  EXPECT_EQ(count[0], 50);
  EXPECT_EQ(count[1], 50);
  EXPECT_FALSE(set.deadlocked());
}

TEST(DomainSetTest, OsThreadsFullMailboxRingYieldsUntilSpace) {
  // More callers than a ring holds ship a section from shard 0 to shard 1
  // at once.  Shard 1 is held inside a green thread (no drain) until every
  // caller has started its call, so the 0 -> 1 ring fills at
  // Mailbox::kCapacity and the rest of the callers take Domain::post's
  // yield-and-retry path until shard 1 drains.  Every call completes, the
  // shipped sums are exact, and the helpers shard 1 spawns, one per call,
  // leave it holding at most the free list's worth of finished blocks.
  constexpr int kCallers = 2 * static_cast<int>(Mailbox::kCapacity) + 8;
  DomainSet::Config cfg;
  cfg.shards = 2;
  cfg.mode = DomainSet::Mode::kOsThreads;
  cfg.sched.stack_size = 64 * 1024;
  DomainSet set(cfg);
  std::atomic<bool> gate_up{false};
  std::atomic<int> calling{0};
  int completed = 0;            // shard 0 only
  std::uint64_t account = 0;    // shard 1 only
  std::size_t spare_blocks = 0;  // shard 1 only: max blocks - live threads
  std::size_t blocks_after = 0;  // shard 1 only, read after join()
  set.start(
      [&](Domain& d) {
        Scheduler& s = d.sched();
        if (d.id() == 1) {
          s.spawn("gate", 5, [&] {
            gate_up.store(true);
            // No yield point: shard 1 drains nothing until all callers are
            // in remote_call (those past the ring's capacity are spinning
            // in post's yield loop on shard 0).
            while (calling.load() < kCallers) std::this_thread::yield();
          });
          return;
        }
        s.spawn("driver", 5, [&] {
          while (!gate_up.load()) s.yield_now();
          for (int i = 1; i <= kCallers; ++i) {
            s.spawn("caller", 5, [&, i] {
              calling.fetch_add(1);
              set.remote_call(1, 5, "deposit", [&, i] {
                account += static_cast<std::uint64_t>(i);
                Scheduler* home = current_scheduler();
                spare_blocks =
                    std::max(spare_blocks,
                             home->control_blocks() - home->live_count());
              });
              ++completed;
            });
          }
        });
      },
      [&](Domain& d) {
        if (d.id() == 1) blocks_after = d.sched().control_blocks();
      });
  set.join();  // join() gives the happens-before for reading the results
  EXPECT_FALSE(set.deadlocked());
  EXPECT_EQ(completed, kCallers);
  EXPECT_EQ(account,
            static_cast<std::uint64_t>(kCallers) * (kCallers + 1) / 2);
  EXPECT_LE(spare_blocks, Scheduler::kMaxFreeBlocks);
  EXPECT_LE(blocks_after, Scheduler::kMaxFreeBlocks);
  EXPECT_EQ(set.domain(1).inbound_work(), 0u);
}

// Every ordered pair (from != to) of an N-shard cooperative set makes one
// remote call, each from its own vthread so a shard's rings fill
// concurrently.  Returns, per target shard, the sender of every call in the
// order it ran, plus each shard's dispatch count, so callers can compare
// whole runs.
struct AllPairsRun {
  std::vector<std::vector<std::uint16_t>> ran_from;  // [to]: senders in order
  std::vector<std::uint64_t> dispatches;
  bool operator==(const AllPairsRun&) const = default;
};

AllPairsRun run_all_pairs(std::size_t shards) {
  DomainSet::Config cfg;
  cfg.shards = shards;
  AllPairsRun r;
  r.ran_from.resize(shards);
  r.dispatches.resize(shards);
  DomainSet set(cfg);
  set.run(
      [&](Domain& d) {
        const std::uint16_t from = d.id();
        for (std::size_t t = 0; t < shards; ++t) {
          const auto to = static_cast<std::uint16_t>(t);
          if (to == from) continue;
          d.sched().spawn("pair", 5, [&set, &r, from, to] {
            // Runs on `to`: ran_from[to] is home-shard-only state.
            set.remote_call(to, 5, "hop",
                            [&r, from, to] { r.ran_from[to].push_back(from); });
          });
        }
      },
      [&](Domain& d) { r.dispatches[d.id()] = d.sched().dispatches(); });
  return r;
}

void expect_every_ring_delivers(std::size_t shards) {
  const AllPairsRun a = run_all_pairs(shards);
  for (std::size_t to = 0; to < shards; ++to) {
    std::vector<int> calls(shards, 0);
    for (const std::uint16_t from : a.ran_from[to]) ++calls[from];
    for (std::size_t from = 0; from < shards; ++from) {
      EXPECT_EQ(calls[from], from == to ? 0 : 1)
          << "shard " << to << " from " << from;
    }
  }
  EXPECT_TRUE(a == run_all_pairs(shards));  // cooperative: run for run
}

TEST(DomainSetTest, CooperativeAllPairsThreeShards) {
  expect_every_ring_delivers(3);
}

TEST(DomainSetTest, CooperativeAllPairsMaxShards) {
  expect_every_ring_delivers(Domain::kMaxShards);
}

TEST(DomainDeathTest, PostFromBeyondTheSetAborts) {
  // A domain holds one ring per shard of its set, so a sender id at or past
  // the set's size has no ring — even when it is below kMaxShards.
  DomainSet::Config cfg;
  cfg.shards = 3;
  DomainSet set(cfg);
  Message m;
  m.kind = Message::Kind::kSectionDone;
  m.from = 3;
  EXPECT_DEATH(set.domain(0).post(m), "message from an impossible shard id");
  m.from = static_cast<std::uint16_t>(Domain::kMaxShards - 1);
  EXPECT_DEATH(set.domain(2).post(m), "message from an impossible shard id");
}

TEST(DomainSetTest, OsThreadsThreeShardsCallBothNeighbours) {
  constexpr int kRounds = 25;
  DomainSet::Config cfg;
  cfg.shards = 3;
  cfg.mode = DomainSet::Mode::kOsThreads;
  DomainSet set(cfg);
  int calls[3][3] = {};  // [to][from], mutated only on shard `to`
  set.start([&](Domain& d) {
    const std::uint16_t me = d.id();
    d.sched().spawn("caller", 5, [&set, &calls, me] {
      for (int i = 0; i < kRounds; ++i) {
        for (const int step : {1, 2}) {
          const auto to = static_cast<std::uint16_t>((me + step) % 3);
          set.remote_call(to, 5, "hop",
                          [&calls, me, to] { ++calls[to][me]; });
        }
      }
    });
  });
  set.join();  // join() gives the happens-before for reading the counters
  EXPECT_FALSE(set.deadlocked());
  for (int to = 0; to < 3; ++to) {
    for (int from = 0; from < 3; ++from) {
      EXPECT_EQ(calls[to][from], from == to ? 0 : kRounds)
          << "shard " << to << " from " << from;
    }
    EXPECT_EQ(set.domain(to).inbound_work(), 0u);
  }
}

TEST(DomainSetTest, OsThreadsShardsRecycleFromTheirOwnPools) {
  // Stack and undo-log chunk pools are per OS thread (DESIGN.md §16): each
  // shard recycles its finished threads' mappings among its own threads, no
  // mapping is ever handed to both shards, and destroying the set on this
  // thread — after the shard threads tore their pools down — is race-free.
  constexpr int kWaves = 64;
  constexpr int kWidth = 16;
  // Home-shard-only mutation, read after join().
  std::vector<const void*> bases[2];
  std::size_t pooled_chunks[2] = {0, 0};  // chunks finished logs gave back
  std::size_t pooled_stacks[2] = {0, 0};
  {
    DomainSet::Config cfg;
    cfg.shards = 2;
    cfg.mode = DomainSet::Mode::kOsThreads;
    DomainSet set(cfg);
    set.start([&](Domain& d) {
      const std::uint16_t me = d.id();
      Scheduler& s = d.sched();
      s.spawn("driver", 5, [&, me] {
        std::vector<ThreadId> wave;
        for (int w = 0; w < kWaves; ++w) {
          wave.clear();
          for (int i = 0; i < kWidth; ++i) {
            VThread* c = s.spawn("c", 5, [] {
              log::Word x = 0;
              current_vthread()->undo_log.record(&x, x);
            });
            bases[me].push_back(c->stack()->base());
            wave.push_back(c->id());
          }
          for (ThreadId c : wave) s.join(c);
        }
        pooled_chunks[me] = log::detail::pooled_chunk_count();
        pooled_stacks[me] = detail::pooled_stack_count();
      });
    });
    set.join();
  }
  for (int shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(bases[shard].size(), static_cast<std::size_t>(kWaves * kWidth));
    EXPECT_GE(pooled_chunks[shard], 1u) << "shard " << shard;
    EXPECT_GE(pooled_stacks[shard], static_cast<std::size_t>(kWidth))
        << "shard " << shard;
  }
  const std::set<const void*> own0(bases[0].begin(), bases[0].end());
  const std::set<const void*> own1(bases[1].begin(), bases[1].end());
  // Every wave after the first ran on recycled mappings.
  EXPECT_LE(own0.size(), 64u + kWidth);
  EXPECT_LE(own1.size(), 64u + kWidth);
  for (const void* b : own1) EXPECT_EQ(own0.count(b), 0u) << b;
}

TEST(DomainSetTest, CooperativeFullMailboxRingMakesProgress) {
  // More callers than a ring holds ship a section from shard 0 to shard 1
  // at once on one OS thread.  The callers past Mailbox::kCapacity wait for
  // space in Domain::post; their shard must hand the thread back to the set
  // loop so that shard 1 drains, or the run never ends.
  constexpr int kCallers = static_cast<int>(Mailbox::kCapacity) + 44;
  DomainSet::Config cfg;
  cfg.shards = 2;
  cfg.sched.stack_size = 64 * 1024;
  DomainSet set(cfg);
  int completed = 0;          // shard 0 only
  std::uint64_t account = 0;  // shard 1 only
  set.run([&](Domain& d) {
    if (d.id() != 0) return;
    for (int i = 1; i <= kCallers; ++i) {
      d.sched().spawn("caller", 5, [&, i] {
        set.remote_call(1, 5, "deposit",
                        [&, i] { account += static_cast<std::uint64_t>(i); });
        ++completed;
      });
    }
  });
  EXPECT_FALSE(set.deadlocked());
  EXPECT_EQ(completed, kCallers);
  EXPECT_EQ(account,
            static_cast<std::uint64_t>(kCallers) * (kCallers + 1) / 2);
}

// ---- Hand-off scheduling (DESIGN.md §16).  These drive a cooperative set
// one shard at a time through with_domain, so each test decides which
// threads are runnable when a message is drained.  A local thread stops its
// shard's run() with request_return() after its first dispatch, leaving
// every local runnable. ----

// One shard's turn of the cooperative set loop: drain, then run.
void take_turn(DomainSet& set, std::size_t shard) {
  set.with_domain(shard, [](Domain& d) {
    d.drain_and_service();
    d.sched().run();
  });
}

// Spawns `n` local threads that log "L<i>" at each dispatch, `rounds`
// times; the last of them stops run() after the first round.
void spawn_locals(Scheduler& s, int n, int rounds,
                  std::vector<std::string>& log) {
  for (int i = 0; i < n; ++i) {
    s.spawn("local", 5, [&s, &log, i, n, rounds] {
      for (int r = 0; r < rounds; ++r) {
        log.push_back(std::string("L").append(std::to_string(i)));
        if (r == 0 && i == n - 1) s.request_return();
        s.yield_now();
      }
    });
  }
}

TEST(DomainHandOffTest, HelperRunsBeforeRunnableLocals) {
  constexpr int kLocals = 4;
  DomainSet::Config cfg;
  cfg.shards = 2;
  DomainSet set(cfg);
  std::vector<std::string> log1;  // shard 1's dispatch log
  set.with_domain(1, [&](Domain& d) {
    spawn_locals(d.sched(), kLocals, 2, log1);
    d.sched().run();  // every local ran once and is runnable again
  });
  ASSERT_EQ(log1.size(), static_cast<std::size_t>(kLocals));
  set.with_domain(0, [&](Domain& d) {
    d.sched().spawn("requester", 5, [&] {
      set.remote_call(1, 5, "ship", [&] { log1.push_back("helper"); });
    });
    d.sched().run();  // posts, then parks: the shard stalls
  });
  take_turn(set, 1);
  // The helper's first run precedes every local's next dispatch.
  ASSERT_EQ(log1.size(), static_cast<std::size_t>(2 * kLocals + 1));
  EXPECT_EQ(log1[kLocals], "helper");
  take_turn(set, 0);
  EXPECT_EQ(set.domain(0).sched().live_count(), 0u);
  EXPECT_EQ(set.domain(1).inbound_work(), 0u);
}

TEST(DomainHandOffTest, WokenRequesterResumesBeforeRunnableLocals) {
  constexpr int kLocals = 4;
  DomainSet::Config cfg;
  cfg.shards = 2;
  DomainSet set(cfg);
  std::vector<std::string> log0;  // shard 0's dispatch log
  set.with_domain(0, [&](Domain& d) {
    d.sched().spawn("requester", 5, [&] {
      set.remote_call(1, 5, "ship", [] {});
      log0.push_back("requester");
    });
    spawn_locals(d.sched(), kLocals, 2, log0);
    d.sched().run();  // the requester parks; every local ran once
  });
  ASSERT_EQ(log0.size(), static_cast<std::size_t>(kLocals));
  take_turn(set, 1);  // the helper
  take_turn(set, 0);
  ASSERT_EQ(log0.size(), static_cast<std::size_t>(2 * kLocals + 1));
  EXPECT_EQ(log0[kLocals], "requester");
  EXPECT_EQ(set.domain(0).inbound_work(), 0u);
}

TEST(DomainHandOffTest, HandOffsOfOnePollKeepArrivalOrder) {
  constexpr int kLocals = 2;
  DomainSet::Config cfg;
  cfg.shards = 2;
  DomainSet set(cfg);
  std::vector<std::string> log0;  // requesters resuming, shard 0
  std::vector<std::string> log1;  // shard 1's dispatch log
  set.with_domain(1, [&](Domain& d) {
    spawn_locals(d.sched(), kLocals, 2, log1);
    d.sched().run();
  });
  set.with_domain(0, [&](Domain& d) {
    for (const char* name : {"A", "B"}) {
      d.sched().spawn(name, 5, [&, name] {
        set.remote_call(1, 5, "ship", [&, name] { log1.push_back(name); });
        log0.push_back(name);
      });
    }
    spawn_locals(d.sched(), kLocals, 2, log0);
    d.sched().run();  // A posts, then B; both park; every local ran once
  });
  // Shard 1 drains both sections in one poll; shard 0 drains both replies
  // in one poll.  Each pair runs in arrival order, ahead of the locals.
  take_turn(set, 1);
  const std::vector<std::string> want1 = {"L0", "L1", "A", "B", "L0", "L1"};
  EXPECT_EQ(log1, want1);
  take_turn(set, 0);
  const std::vector<std::string> want0 = {"L0", "L1", "A", "B", "L0", "L1"};
  EXPECT_EQ(log0, want0);
}

TEST(DomainHandOffTest, OsThreadsRemoteTrafficDoesNotStarveALocalSpinner) {
  // Eight requesters on shard 0 ship sections to shard 1 back to back
  // while a local thread there spins on yield_now().  Every helper is a
  // hand-off, yet the spinner finishes, and between two of its dispatches
  // shard 1's clock advances by at most (outstanding calls + 1) quanta:
  // each helper runs ahead of it at most once per wait.
  constexpr int kRequesters = 8;
  constexpr int kQuantum = 10;
  constexpr int kSpins = 4000;
  DomainSet::Config cfg;
  cfg.shards = 2;
  cfg.mode = DomainSet::Mode::kOsThreads;
  cfg.sched.quantum = kQuantum;
  cfg.sched.stack_size = 64 * 1024;
  DomainSet set(cfg);
  std::atomic<bool> spinning{true};
  std::uint64_t max_gap = 0;  // shard 1 only, read after join()
  int calls = 0;              // shard 0 only, read after join()
  set.start([&](Domain& d) {
    Scheduler& s = d.sched();
    if (d.id() == 1) {
      s.spawn("spinner", 5, [&] {
        for (int i = 0; i < kSpins; ++i) {
          const std::uint64_t before = s.now();
          s.yield_now();
          max_gap = std::max(max_gap, s.now() - before);
        }
        spinning.store(false);
      });
      return;
    }
    for (int r = 0; r < kRequesters; ++r) {
      s.spawn("requester", 5, [&] {
        while (spinning.load()) {
          set.remote_call(1, 5, "ship", [] {
            Scheduler* owner = current_scheduler();
            for (int k = 0; k < kQuantum - 1; ++k) owner->yield_point();
          });
          ++calls;
        }
      });
    }
  });
  set.join();  // join() gives the happens-before for reading the results
  EXPECT_FALSE(set.deadlocked());
  EXPECT_GT(calls, 0);
  EXPECT_LE(max_gap, static_cast<std::uint64_t>((kRequesters + 1) * kQuantum));
}

TEST(DomainSetTest, OsThreadsSurfacesShardFailureAtJoin) {
  DomainSet::Config cfg;
  cfg.shards = 2;
  cfg.mode = DomainSet::Mode::kOsThreads;
  DomainSet set(cfg);
  set.start([&](Domain& d) {
    if (d.id() != 1) return;
    d.sched().spawn("dies", 5,
                    [] { throw std::logic_error("shard thread failure"); });
  });
  EXPECT_THROW(set.join(), std::logic_error);
}

}  // namespace
}  // namespace rvk::rt
