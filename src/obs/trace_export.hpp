// Chrome trace-event JSON exporter (DESIGN.md §10.4).
//
// Emits the {"traceEvents": [...]} format that chrome://tracing and
// Perfetto's trace viewer (https://ui.perfetto.dev) both open directly.
// Layout:
//
//  * pid 1 "threads"   — one track per tid seen in the events, named from
//    its latest kDispatch (lane name and priority).  Duration slices (B/E)
//    for synchronized sections (section-enter → section-commit/abort) and
//    monitor waits (monitor-contend → monitor-acquire); instants for
//    acquires, releases, barges, revocation traffic, pins, undo replays and
//    deadlock breaks.
//  * pid 2 "scheduler" — the same thread ids, but each dispatch →
//    switch-out pair becomes one complete (X) slice: the processor's
//    timeline.  Sections span multiple scheduling quanta, so keeping the
//    two views on separate tracks avoids malformed B/E nesting.
//
// Timestamps are the event's wall clock in microseconds (Chrome's unit);
// every event carries its virtual-clock value in args, so the deterministic
// schedule can be read off the same timeline.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "explore/trace.hpp"
#include "obs/event.hpp"

namespace rvk::obs {

// Writes `events` (recorder snapshot order: ascending seq) as Chrome
// trace-event JSON.  A kDispatch event's `a` is 1 + an index into
// `lane_names`; a tid with no such dispatch in `events` gets the lane
// "thread <tid>".  Unpaired begin events are closed at the last seen
// timestamp; close events whose begin was dropped by the ring degrade to
// instants — a truncated ring still yields a well-formed trace.
void write_chrome_trace(const std::vector<Event>& events,
                        const std::vector<std::string>& lane_names,
                        std::ostream& os);

// Renders a decoded rvkx1 exploration trace (see explore/trace.hpp) on a
// synthetic timeline: decision i becomes a 1 µs slice on the chosen
// thread's track, with the candidate count in args.  There is no wall
// clock in a decision trace — the x-axis is the decision index, which for
// a quasi-preemptive schedule IS the schedule.
void write_decisions_chrome_trace(const std::vector<explore::Decision>& trace,
                                  std::ostream& os);

}  // namespace rvk::obs
