// JMM-consistency checker over recorded executions.
//
// Verifies the guarantee the paper's design hinges on (§2.1–2.2): a
// revocation never removes a value another thread already observed.  Two
// checks run over the linear event stream:
//
//  1. No-thin-air: for every Undo event (a rollback restoring location L),
//     no *other* thread may have read the speculative value between the
//     write that produced it and the undo that removed it.  If the engine's
//     non-revocability pinning is correct, such a foreign observation forces
//     the writer's frames non-revocable and the undo can never happen —
//     so any occurrence is a genuine consistency violation (the Figure 2 /
//     Figure 3 scenarios actually going wrong).
//
//  2. Shadow-replay: the checker maintains a shadow copy of every location
//     from the event stream (writes set it, undos restore it) and verifies
//     every read returned exactly the shadow value.  This catches undo-log
//     corruption: wrong old values, wrong replay order, missed entries.
//
// The substrate's single-core total ordering makes both checks exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jmm/trace.hpp"

namespace rvk::jmm {

struct Violation {
  enum class Kind {
    kThinAirRead,    // a foreign read observed a value that was later undone
    kShadowMismatch, // a read returned a value inconsistent with the shadow
    kUndoMismatch,   // an undo restored a value that was never the old value
  };
  Kind kind;
  std::size_t event_index;  // index of the offending event in the trace
  std::string detail;
};

struct CheckResult {
  std::vector<Violation> violations;
  std::uint64_t reads_checked = 0;
  std::uint64_t writes_seen = 0;
  std::uint64_t undos_seen = 0;

  bool ok() const { return violations.empty(); }
  // Human-readable report of up to `max` violations.
  std::string report(std::size_t max = 10) const;
};

// Runs both checks over `events` (typically a jmm::Trace's events()).
CheckResult check_consistency(const std::vector<Event>& events);

}  // namespace rvk::jmm
