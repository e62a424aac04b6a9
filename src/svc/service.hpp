// Bank/KV-style service layer with contended shared state (DESIGN.md §15).
//
// The service is a sharded ledger: each shard is an account array guarded by
// one monitor.  A request transfers between accounts of one shard inside a
// synchronized section, with a yield point per step — so long bronze scans
// are preemptible and the inversion-avoidance protocol under test decides
// what a blocked gold request can do about the bronze section in its way.
//
// The same service body runs under all four protocols:
//   * kRevocation  — core::Engine::try_synchronized: a request past its SLO
//                    deadline gives up; an inverting owner is revoked (§4);
//   * kInheritance — PriorityInheritanceMonitor::try_enter;
//   * kCeiling     — PriorityCeilingMonitor::try_enter;
//   * kBlocking    — BlockingMonitor::try_enter (no remedy — the deadline
//                    still bounds the wait, so saturation shows up as
//                    give-ups rather than a wedged run).
//
// Section bodies are written for re-execution: the revocation engine may
// roll a body back and restart it, so each body reseeds its private RNG
// from a value fixed before entry.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "monitor/monitor.hpp"
#include "monitor/priority_ceiling.hpp"
#include "monitor/priority_inheritance.hpp"
#include "obs/metrics.hpp"
#include "rt/scheduler.hpp"

namespace rvk::svc {

enum class Protocol : std::uint8_t {
  kBlocking,
  kInheritance,
  kCeiling,
  kRevocation,
};

inline constexpr std::array<Protocol, 4> kAllProtocols = {
    Protocol::kBlocking, Protocol::kInheritance, Protocol::kCeiling,
    Protocol::kRevocation};

const char* protocol_name(Protocol p);

struct ServiceConfig {
  Protocol protocol = Protocol::kRevocation;
  int shards = 4;
  int accounts_per_shard = 64;
  // Programmer-supplied ceiling for kCeiling (the non-transparency §5 calls
  // out): must be >= the highest priority of any tier that uses the locks.
  int ceiling = rt::kMaxPriority - 1;
};

class BankService {
 public:
  BankService(rt::Scheduler& sched, const ServiceConfig& cfg);

  BankService(const BankService&) = delete;
  BankService& operator=(const BankService&) = delete;

  // Runs one request from a green thread: `ops` conditional-transfer steps
  // against one rng-chosen shard, entered with an `entry_budget`-tick
  // abortable acquisition.  Returns true when the section committed, false
  // when entry gave up (deadline expired / cancellation) — in which case
  // nothing was held and nothing ran.
  bool execute(int ops, std::uint64_t entry_budget, SplitMix64& rng);

  // Sum over every account of every shard.  Conserved by construction
  // (transfers only); under revocation, also a rollback-correctness check.
  std::uint64_t ledger_total();

  std::uint64_t rollbacks() const;
  std::uint64_t entry_giveups() const;  // engine + monitor abort counts

  // Publishes the shard monitors' MonitorStats (and, under revocation, the
  // engine's counters) as monitor.<shard>.stats.* — the registry's only
  // per-monitor counters.
  void publish_metrics(obs::Registry& reg);

  core::Engine* engine() { return engine_.get(); }
  const ServiceConfig& config() const { return cfg_; }

 private:
  struct Shard {
    heap::HeapArray<std::uint64_t>* accounts = nullptr;
    core::RevocableMonitor* revocable = nullptr;       // kRevocation
    std::unique_ptr<monitor::MonitorBase> baseline;    // other protocols
  };

  ServiceConfig cfg_;
  heap::Heap heap_;
  std::unique_ptr<core::Engine> engine_;  // kRevocation only
  monitor::InheritanceDomain inherit_domain_;
  monitor::CeilingDomain ceiling_domain_;
  std::vector<Shard> shards_;
};

}  // namespace rvk::svc
