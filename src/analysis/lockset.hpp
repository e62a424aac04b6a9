// Eraser-style lockset race detection over the barrier trace stream.
//
// Classic Eraser (Savage et al., TOCS 1997) state machine per location —
// virgin -> exclusive -> shared -> shared-modified — with a candidate
// lockset C(v) that is intersected with the accessor's held monitors once a
// location is shared.  A race is reported when C(v) empties while the
// location is write-shared.
//
// Three deliberate departures, tuned to this runtime's semantics (the
// false-positive policy; see DESIGN.md "Revocation-safety analyzer"):
//
//  * Host accesses (no current green thread) are not fed to the table at
//    all: host code runs only while the scheduler is not, so it cannot
//    interleave with green threads.
//  * Volatile accesses never reach the table: volatiles are synchronization
//    primitives under the JMM, and the §2.2 Figure-3 scenarios (volatile
//    handshake publishing speculative data) would otherwise false-positive.
//  * Lockless *reads* neither refine C(v) nor change state.  The §2.2
//    JMM guard makes unmonitored reads of speculative data safe — the read
//    barrier's writer-mark escalation pins the writer's frames — so a bare
//    read is not evidence of a broken locking discipline here, only writes
//    and lock-holding reads are.
//
// Location granularity is the full trace identity (base, offset): per
// object field / array element / statics slot.  Deliberately *finer* than
// ObjectMeta's per-object writer mark — distinct fields of one object may
// legitimately be guarded by distinct monitors (the deadlock tests do
// exactly that), and a per-object candidate set would false-positive on
// them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace rvk::analysis {

// Lockset location identity: heap::TraceAccess's (base, offset) pair, which
// also names the location in violation messages.
struct LocKey {
  const void* base = nullptr;
  std::uint32_t offset = 0;
  bool operator==(const LocKey&) const = default;
};

struct LocKeyHash {
  std::size_t operator()(const LocKey& k) const {
    std::size_t h = reinterpret_cast<std::uintptr_t>(k.base);
    return h ^ (static_cast<std::size_t>(k.offset) * 0x9e3779b97f4a7c15ULL);
  }
};

enum class LocState : std::uint8_t {
  kVirgin,          // never accessed
  kExclusive,       // accessed by a single thread so far
  kShared,          // read-shared: second thread read it (no report state)
  kSharedModified,  // write-shared: races are reported here
};

const char* state_name(LocState s);

class LocksetTable {
 public:
  struct Outcome {
    bool race = false;  // candidate set emptied (reported once per location)
    LocState state = LocState::kVirgin;
  };

  // Feed one non-volatile, logged access.  `held` is the accessor's set of
  // distinct monitors held via engine frames (order irrelevant, no dups).
  Outcome on_access(LocKey loc, std::uint32_t tid, bool is_write,
                    const std::vector<const void*>& held);

  std::size_t size() const { return locs_.size(); }

  // The surviving candidate set of `loc` (empty vector if untracked);
  // exposed for tests.
  std::vector<const void*> lockset_of(LocKey loc) const;
  LocState state_of(LocKey loc) const;

 private:
  struct Location {
    LocState state = LocState::kVirgin;
    std::uint32_t owner_tid = 0;        // meaningful in kExclusive
    bool lockset_valid = false;         // C(v) initialized yet?
    bool reported = false;              // report each location at most once
    std::vector<const void*> lockset;   // candidate set C(v)
  };

  static void intersect(std::vector<const void*>& c,
                        const std::vector<const void*>& held);

  std::unordered_map<LocKey, Location, LocKeyHash> locs_;
};

}  // namespace rvk::analysis
