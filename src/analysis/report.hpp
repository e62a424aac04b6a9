// Violation records produced by the revocation-safety analyzer.
//
// The analyzer (hooks.hpp) watches its engine's shard through the engine:
// traced accesses, forbidden-region switch points and the event stream.
// It files one Violation per observed breach of the
// invariants the paper's scheme rests on (§1.1, §2.2).  Violations are
// deterministic: the green-thread substrate executes one total order per
// seed, so a flagged run flags the same accesses every time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rvk::analysis {

struct Violation {
  enum class Kind : std::uint8_t {
    // Two threads accessed a managed location with no common monitor held
    // (Eraser lockset discipline, see lockset.hpp).
    kLocksetRace,
    // A store executed inside a `sync_depth > 0` section without appending
    // an undo-log entry: a rollback of the section could not revert it
    // (§3.1.2 — "partial results ... are reverted").
    kBarrierBypass,
    // A yield point or blocking call was reached inside the engine's
    // commit/abort sequence or a monitor release path, breaking the
    // green-thread atomicity the undo-then-release protocol relies on.
    kForbiddenRegion,
    // Non-revocability pinning lost its upward closure (§2.2: pinning a
    // frame pins its enclosing frames), or a revocation delivery would
    // abort a pinned frame.
    kPinClosure,
  };

  Kind kind;
  std::uint32_t tid = 0;        // thread the violation was observed on
  const void* base = nullptr;   // location identity (accesses only)
  std::uint32_t offset = 0;
  std::uint64_t frame = 0;      // frame id (frame-related kinds only)
  std::string detail;           // human-readable one-liner
};

const char* kind_name(Violation::Kind k);

// Counters plus the violation list; printed via AnalysisReport::print (the
// engine prints it at teardown when it holds violations).
struct AnalysisReport {
  std::vector<Violation> violations;

  std::uint64_t accesses_checked = 0;   // trace events examined
  std::uint64_t frame_events = 0;       // engine frame events examined
  std::uint64_t bypass_checks = 0;      // in-section stores audited
  std::uint64_t locations_tracked = 0;  // distinct lockset locations

  std::uint64_t count(Violation::Kind k) const;
  void print(std::ostream& os) const;
};

}  // namespace rvk::analysis
