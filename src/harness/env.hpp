// Environment-variable controls shared by the figure binaries.
//
//   RVK_PAPER=1       run paper-size parameters: 100 sections/thread,
//                     500K low-priority iterations, 100K/500K high-priority
//                     iterations, 5 measured reps (takes hours, like the
//                     original on an 800MHz P-III).
//   RVK_REPS=<n>      measured repetitions per configuration (default 3).
//   RVK_SECTIONS=<n>  synchronized sections per thread.
//   RVK_LOW_ITERS=<n> low-priority inner-loop iterations; high-priority
//                     iteration counts scale with the same factor vs paper.
//   RVK_SEED=<n>      base RNG seed.
//   RVK_CSV=<dir>     also write <dir>/<figure-id>.csv.
//
// Observability knobs (read directly by obs::Recorder, not by apply_env —
// see src/obs/recorder.hpp and DESIGN.md §10):
//
//   RVK_OBS=1         record the whole sweep: metrics accumulate across
//                     repetitions, the event trace keeps the last one, and
//                     obs_<figure-id>_metrics.json plus
//                     obs_<figure-id>_trace.json are written at the end.
//   RVK_OBS_METRICS=<file>  metrics output path override (implies RVK_OBS).
//   RVK_OBS_TRACE=<file>    Chrome/Perfetto trace path override (implies
//                           RVK_OBS).
//   RVK_OBS_RING=<n>  event-ring capacity per shard (default 16384,
//                     rounded up to a power of two; drop-oldest overflow).
#pragma once

#include <string>

#include "harness/figures.hpp"

namespace rvk::harness {

// Applies the environment overrides to a figure spec whose defaults are the
// scaled-down parameters.  `paper_high_iters` is the figure's paper-size
// high-priority iteration count (100'000 or 500'000); the scaled value keeps
// the paper's high:low ratio.
void apply_env(FigureSpec& spec, std::uint64_t paper_high_iters);

// Directory from RVK_CSV, or empty.
std::string csv_dir();

}  // namespace rvk::harness
