// The revocation-safety analyzer.
//
// An always-available dynamic checker for the invariants the preemption
// scheme rests on.  It sees the runtime through one seam, its engine
// (core::EngineObserver; the engine is the scheduler's rt::EngineLink):
//
//  * on_access           — every managed read/write/volatile/unlogged access
//                          made on the engine's shard (heap::trace_access)
//  * on_engine_event     — the engine's frame transitions
//  * on_forbidden_switch — yield points & blocking calls reached inside a
//                          ForbiddenRegionGuard, which the engine forwards
//
// It detects, online and deterministically (see report.hpp for the classes):
// lockset races, barrier bypasses, forbidden-region switch points, and
// pin-closure breaches.
//
// Enabled per engine via EngineConfig::analyze or process-wide via the
// RVK_ANALYZE=1 environment variable.  Each such engine owns one Analyzer
// (core::Engine::analyzer()) for its lifetime, subscribes it, and prints its
// report at teardown when it holds violations.  A shard's state is touched
// only on that shard (CLAUDE.md), so an analyzer needs no lock, and a
// lockset covers one shard: only a shard-isolation breach could relate
// accesses made on two shards.  While any analyzer lives, forbidden regions
// are marked process-wide (rt::region_marking).
//
// Layering: analysis/ depends on heap/, rt/ and *headers* of core/
// (frame.hpp and revocable_monitor.hpp are usable without core's objects);
// core/ links analysis/ and owns the Analyzer.  This keeps the library
// dependency graph acyclic.
//
// The obs recorder is not a seam here: its monitor/engine handler never
// allocates, which rvkcheck's forbidden-region rule checks statically.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "analysis/lockset.hpp"
#include "analysis/report.hpp"
#include "core/frame.hpp"
#include "heap/barriers.hpp"
#include "rt/vthread.hpp"
#include "support/annotations.hpp"

namespace rvk::analysis {

// True when RVK_ANALYZE is set to a non-empty value other than "0".
bool env_enabled();

// One engine's analyzer.  Construction turns forbidden-region marking on
// (a process-wide count of live analyzers), destruction turns it off again.
class Analyzer final : public core::EngineObserver {
 public:
  Analyzer();
  ~Analyzer();

  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  const AnalysisReport& report() const { return report_; }
  const LocksetTable& lockset() const { return lockset_; }
  void print(std::ostream& os) const;

  // Seam bodies (public so tests can drive them directly; synthetic
  // EngineEvents are how pin-closure breaches are unit-tested without
  // corrupting a live engine).
  void on_access(const heap::TraceAccess& a) override;
  void on_engine_event(const core::EngineEvent& e) override;
  void on_forbidden_switch(rt::VThread* t, const char* where);

 private:
  void record(Violation v);
  void check_logged_store(rt::VThread* t, const heap::TraceAccess& a);
  void collect_held(rt::VThread* t);
  void audit_pin_closure(const core::EngineEvent& e);
  void audit_delivery(const core::EngineEvent& e);

  AnalysisReport report_;
  LocksetTable lockset_;
  // Latest-known frame stack per thread id, refreshed by every frame event
  // and dropped when the thread's last frame exits.  Held-monitor sets for
  // the lockset are derived from it; a thread with no entry holds nothing.
  std::unordered_map<std::uint32_t, const core::FrameStack*> frames_of_;
  std::vector<const void*> held_;  // scratch, reused across accesses
  // Frames already reported for a closure breach (frame events repeat while
  // the breach persists; one report per frame is enough).
  std::vector<std::uint64_t> pin_reported_;
};

}  // namespace rvk::analysis
