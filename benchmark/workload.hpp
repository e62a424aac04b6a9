// The workload interface main.cpp runs, and helpers shared by
// the four workloads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/engine.hpp"
#include "monitor/monitor.hpp"

namespace rvk::bench {

using Metrics = std::map<std::string, double>;

// Output checks; any failure makes the run incorrect (non-zero exit).
class Checks {
 public:
  void expect(bool ok, const std::string& name, const std::string& detail = "") {
    items_.push_back({name, ok, detail});
    ok_ = ok_ && ok;
  }
  bool ok() const { return ok_; }
  struct Item {
    std::string name;
    bool ok;
    std::string detail;
  };
  const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
  bool ok_ = true;
};

// The traced rep: its ordinary outputs (whose ticks must match the untraced
// rep of the same seed), per-layer metrics, and the spans kept in memory.
struct TracedRep {
  RepOut rep;
  Metrics metrics;
  std::vector<Span> spans;
  std::vector<std::string> class_names;  // by Span::cls
  double ns_per_stamp = 1.0;
  bool conserved = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Runs one untraced rep on `seed` (set-up timed separately).
  virtual RepOut rep(std::uint64_t seed) = 0;

  // Runs the same rep with the ledger on.
  virtual TracedRep traced_rep(std::uint64_t seed) = 0;

  // Short configurations whose results must match the library's own run
  // loops (svc::run_open_loop, harness::run_workload).
  virtual void cross_check(std::uint64_t /*seed*/, Checks& /*checks*/) {}

  // Extra per-layer metrics measured outside the traced rep (capacity),
  // from the run's seed.
  virtual void extra_metrics(std::uint64_t /*seed*/, Metrics& /*m*/) {}

  // False when the pooled tick metrics of one seed may differ from run to
  // run (OS-thread shards).  Every rep's digest must repeat regardless.
  virtual bool deterministic() const { return true; }

  // Rep seeds per run; the tick percentiles pool their first cycle.
  virtual std::uint64_t subseeds() const { return 4; }
};

std::unique_ptr<Workload> make_open_loop(bool revocation, bool smoke);
std::unique_ptr<Workload> make_paper_writes(bool smoke);
std::unique_ptr<Workload> make_sharded();

// The library's own counters over a traced rep.
struct Counters {
  core::EngineStats engine{};
  monitor::MonitorStats monitors{};
  std::uint64_t dispatches = 0;
  std::uint64_t sections = 0;  // committed
};

void add(core::EngineStats& sum, const core::EngineStats& s);
void add(monitor::MonitorStats& sum, const monitor::MonitorStats& s);
bool same(const core::EngineStats& a, const core::EngineStats& b);

// The per-layer metrics every workload derives from its ledgers and the
// library's counters; `plain_write_ns` > 0 when writes are undo-logged.
void layer_metrics(const std::vector<const Ledger*>& ledgers,
                   const Counters& c, double plain_write_ns, Metrics& m);

// Cost of one HeapArray::set outside any section, in ns, measured in this
// process: the heap share of an in-section write.
double calibrate_plain_write_ns();

// Writes the first `first_n` spans by start and the `slowest_n` slowest
// class-0 spans among the rest as Chrome trace-event JSON.
bool write_chrome_trace(const std::string& path, std::vector<Span> spans,
                        double ns_per_stamp,
                        const std::vector<std::string>& class_names,
                        std::size_t first_n, std::size_t slowest_n);

// Derives the rep seed for sub-seed index `k` from the run's seed.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace rvk::bench
