// The revocation-safety analyzer: install points and the Analyzer itself.
//
// An always-available dynamic checker for the invariants the preemption
// scheme rests on.  It observes the system through two null-checked
// function-pointer seams, so the analyzer-off fast path costs one
// predicted-not-taken test, plus the engine's event stream:
//
//  * heap::set_analysis_hook — every managed read/write/volatile/unlogged
//                              access (barrier trace dispatch)
//  * rt::set_switch_probe    — yield points & blocking calls reached inside
//                              a ForbiddenRegionGuard
//  * core::EngineObserver    — the engine's frame transitions; each engine
//                              that installs the analyzer subscribes it
//
// It detects, online and deterministically (see report.hpp for the classes):
// lockset races, barrier bypasses, forbidden-region switch points, and
// pin-closure breaches.
//
// Enabled per engine via EngineConfig::analyze or process-wide via the
// RVK_ANALYZE=1 environment variable; core::Engine installs the analyzer in
// its constructor and uninstalls it in its destructor.
//
// Layering: analysis/ depends on heap/, rt/ and *headers* of core/
// (frame.hpp and revocable_monitor.hpp are usable without core's objects);
// core/ links analysis/ and calls the Analyzer through the header-only
// EngineObserver interface.  This keeps the library dependency graph
// acyclic.
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

// Process-global analyzer.  One instance observes the whole process; the
// install is refcount-shared so that under sharding (DESIGN.md §16) every
// shard's engine can install/uninstall in its own constructor/destructor —
// the first install creates the analyzer, the last uninstall tears it down.
// Event dispatch is serialized internally, so multi-shard (kOsThreads) runs
// feed one coherent lockset/frame table.
class Analyzer final : public core::EngineObserver {
 public:
  // Installs the analyzer into both hook seams and enables forbidden-region
  // marking, creating it on the first install and bumping a refcount on
  // later ones.  Returns the shared instance; the installing engine
  // subscribes it to its event stream.
  static Analyzer* install();

  // Drops one install reference; the last one tears the hooks back out.  If
  // violations were recorded, prints the report to stderr first (so
  // fig/bench binaries surface breaches without bespoke plumbing).  No-op
  // when not installed.
  static void uninstall();

  // The installed analyzer, or nullptr.
  static Analyzer* active();

  const AnalysisReport& report() const { return report_; }
  const LocksetTable& lockset() const { return lockset_; }
  void print(std::ostream& os) const;

  // Hook bodies (public so the trampolines and tests can drive them
  // directly; synthetic EngineEvents are how pin-closure breaches are
  // unit-tested without corrupting a live engine).  on_engine_event takes
  // the dispatch lock itself: every shard's engine publishes into it.
  void on_access(const heap::TraceAccess& a);
  void on_engine_event(const core::EngineEvent& e) override;
  void on_forbidden_switch(rt::VThread* t, const char* where);

 private:
  Analyzer() = default;

  void record(Violation v);
  void check_logged_store(rt::VThread* t, const heap::TraceAccess& a);
  void collect_held(rt::VThread* t);
  void audit_pin_closure(const core::EngineEvent& e);
  void audit_delivery(const core::EngineEvent& e);

  AnalysisReport report_;
  LocksetTable lockset_;
  // Latest-known frame stack per thread id, refreshed by every frame event.
  // Held-monitor sets for the lockset are derived from it; threads with no
  // engine activity yet hold nothing.
  std::unordered_map<std::uint32_t, const core::FrameStack*> frames_of_;
  std::vector<const void*> held_;  // scratch, reused across accesses
  // Frames already reported for a closure breach (frame events repeat while
  // the breach persists; one report per frame is enough).
  std::vector<std::uint64_t> pin_reported_;
};

}  // namespace rvk::analysis
