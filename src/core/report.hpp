// Human-readable runtime reports: engine statistics and per-monitor
// contention profiles.  Used by examples, benchmarks, and post-mortem
// debugging of revocation behaviour.
#pragma once

#include <iosfwd>

#include "core/engine.hpp"

namespace rvk::core {

// Writes a multi-line summary of the engine's counters: section traffic,
// inversion detections by source, revocation outcomes (delivered, denied
// and why), deadlock activity, JMM pinning, and log volume.
void print_engine_report(Engine& engine, std::ostream& os);

// Writes one line per monitor the engine knows about: owner, deposited
// priority, queue lengths, acquisition/contention/handoff counters.
void print_monitor_report(const Engine& engine, std::ostream& os);

}  // namespace rvk::core
