#include "svc/service.hpp"

#include <string>

#include "common/check.hpp"

namespace rvk::svc {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kBlocking: return "blocking";
    case Protocol::kInheritance: return "inheritance";
    case Protocol::kCeiling: return "ceiling";
    case Protocol::kRevocation: return "revocation";
  }
  RVK_UNREACHABLE("unknown protocol");
}

namespace {
constexpr std::uint64_t kInitialBalance = 1000;
}  // namespace

BankService::BankService(rt::Scheduler& sched, const ServiceConfig& cfg)
    : cfg_(cfg) {
  RVK_CHECK_MSG(cfg.shards > 0 && cfg.accounts_per_shard > 0,
                "service needs >= 1 shard and >= 1 account");
  if (cfg.protocol == Protocol::kRevocation) {
    engine_ = std::make_unique<core::Engine>(sched);
  }
  shards_.resize(static_cast<std::size_t>(cfg.shards));
  for (int s = 0; s < cfg.shards; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.accounts = heap_.alloc_array<std::uint64_t>(
        static_cast<std::size_t>(cfg.accounts_per_shard));
    for (int i = 0; i < cfg.accounts_per_shard; ++i) {
      sh.accounts->set_unlogged(static_cast<std::size_t>(i), kInitialBalance);
    }
    // Named for the protocol too: one recorder can span runs of several
    // protocols (bench/macro_open), and each keys its counters by name.
    const std::string name = std::string(protocol_name(cfg.protocol))
                                 .append("/shard-")
                                 .append(std::to_string(s));
    switch (cfg.protocol) {
      case Protocol::kRevocation:
        sh.revocable = engine_->make_monitor(name);
        break;
      case Protocol::kBlocking:
        sh.baseline = std::make_unique<monitor::BlockingMonitor>(name);
        break;
      case Protocol::kInheritance:
        sh.baseline = std::make_unique<monitor::PriorityInheritanceMonitor>(
            name, inherit_domain_);
        break;
      case Protocol::kCeiling:
        sh.baseline = std::make_unique<monitor::PriorityCeilingMonitor>(
            name, cfg.ceiling, ceiling_domain_);
        break;
    }
  }
}

bool BankService::execute(int ops, std::uint64_t entry_budget,
                          SplitMix64& rng) {
  Shard& sh = shards_[rng.next_below(shards_.size())];
  const auto accounts = static_cast<std::uint64_t>(cfg_.accounts_per_shard);
  // Fixed before entry so a rolled-back body re-executes identically.
  const std::uint64_t body_seed = rng.next();
  auto body = [&] {
    SplitMix64 brng(body_seed);
    for (int i = 0; i < ops; ++i) {
      const auto from = static_cast<std::size_t>(brng.next_below(accounts));
      const auto to = static_cast<std::size_t>(brng.next_below(accounts));
      const std::uint64_t have = sh.accounts->get(from);
      if (have > 0) {
        sh.accounts->set(from, have - 1);
        sh.accounts->set(to, sh.accounts->get(to) + 1);
      }
      rt::yield_point();
    }
  };
  if (cfg_.protocol == Protocol::kRevocation) {
    return engine_->try_synchronized(*sh.revocable, entry_budget, body);
  }
  if (!sh.baseline->try_enter(entry_budget)) return false;
  body();
  sh.baseline->release();
  return true;
}

std::uint64_t BankService::ledger_total() {
  std::uint64_t total = 0;
  for (Shard& sh : shards_) {
    for (std::size_t i = 0; i < sh.accounts->length(); ++i) {
      total += sh.accounts->get(i);
    }
  }
  return total;
}

std::uint64_t BankService::rollbacks() const {
  return engine_ ? engine_->stats().rollbacks_completed : 0;
}

void BankService::publish_metrics(obs::Registry& reg) {
  if (engine_) {
    engine_->publish_metrics(reg);
    return;
  }
  for (const Shard& sh : shards_) {
    obs::publish(reg, sh.baseline->stats(),
                 "monitor." + sh.baseline->name() + ".stats.");
  }
}

std::uint64_t BankService::entry_giveups() const {
  if (engine_) return engine_->stats().entry_aborts;
  std::uint64_t aborts = 0;
  for (const Shard& sh : shards_) aborts += sh.baseline->stats().aborts;
  return aborts;
}

}  // namespace rvk::svc
