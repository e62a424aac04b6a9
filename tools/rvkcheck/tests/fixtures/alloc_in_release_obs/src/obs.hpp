// Miniature observability recorder, shaped like the real tree's: an inline
// dispatcher gated on a plain global, the per-shard recorder read through
// an out-of-line accessor, and one record handler behind both.
#pragma once

namespace eng {

struct Recorder {
  // Per-monitor counters keyed by monitor name: the first event for a name
  // inserts a map node.  Undeclared — the checker computes the effect.
  void record(int kind, const char* name);
  Map profiles_;
};

extern int g_obs_active;  // fast-path gate: plain, not thread-local

// Out-of-line accessor: the only sanctioned way to read detail::g_recorder.
Recorder* current_recorder();

inline void on_event(int kind, const char* name) {
  if (g_obs_active == 0) return;
  if (Recorder* r = current_recorder()) r->record(kind, name);
}

}  // namespace eng
