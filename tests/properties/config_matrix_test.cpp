// Engine-configuration matrix: the same contention scenario must satisfy
// the same invariants under every combination of engine features —
// detection mode × JMM guard × backoff × scheduler policy.
#include <gtest/gtest.h>

#include <sstream>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "jmm/checker.hpp"
#include "jmm/trace.hpp"
#include "rt/scheduler.hpp"

namespace rvk::core {
namespace {

struct MatrixParams {
  DetectionMode detection;
  bool jmm_guard;
  std::uint64_t backoff;
  bool strict_priority;
};

class ConfigMatrixTest : public ::testing::TestWithParam<MatrixParams> {};

TEST_P(ConfigMatrixTest, ContentionScenarioInvariants) {
  const MatrixParams mp = GetParam();

  rt::SchedulerConfig scfg;
  scfg.quantum = 60;
  scfg.strict_priority = mp.strict_priority;
  rt::Scheduler sched(scfg);

  EngineConfig cfg;
  cfg.detection = mp.detection;
  cfg.background_period = 5;
  cfg.jmm_guard = mp.jmm_guard;
  cfg.retry_backoff_ticks = mp.backoff;
  Engine engine(sched, cfg);
  heap::Heap heap;

  heap::HeapArray<std::uint64_t>* arr = heap.alloc_array<std::uint64_t>(8);
  RevocableMonitor* m = engine.make_monitor("m");

  // 2 low + 1 medium + 1 high thread, several sections each.
  int sections_done = 0;
  std::uint64_t hi_total_wait = 0;
  jmm::Trace trace(engine);
  for (int t = 0; t < 4; ++t) {
    const int prio = (t < 2) ? 2 : (t == 2 ? 5 : 9);
    sched.spawn(std::string("t").append(std::to_string(t)), prio, [&, t, prio] {
      for (int s = 0; s < 4; ++s) {
        sched.sleep_for(static_cast<std::uint64_t>(50 + 70 * t + 30 * s));
        const std::uint64_t t0 = sched.now();
        engine.synchronized(*m, [&] {
          const int iters = prio >= 9 ? 40 : 400;
          for (int i = 0; i < iters; ++i) {
            arr->set(static_cast<std::size_t>(i) & 7,
                     static_cast<std::uint64_t>(i));
            (void)arr->get(static_cast<std::size_t>((i + 3)) & 7);
            sched.yield_point();
          }
        });
        if (prio >= 9) hi_total_wait += sched.now() - t0;
        ++sections_done;
      }
    });
  }
  sched.run();

  // Liveness + accounting invariants hold under every configuration.
  EXPECT_FALSE(sched.stalled());
  EXPECT_EQ(sections_done, 16);
  const EngineStats& st = engine.stats();
  EXPECT_EQ(st.sections_entered, st.sections_committed + st.frames_aborted);
  EXPECT_EQ(st.sections_committed, 16u);
  EXPECT_EQ(m->owner(), nullptr);

  // Revocation-enabled configurations actually revoke in this scenario.
  if (mp.detection != DetectionMode::kNone) {
    EXPECT_GE(st.revocations_requested, 1u)
        << "no inversion detected under this configuration";
  } else {
    EXPECT_EQ(st.rollbacks_completed, 0u);
  }

  // JMM consistency of the full run.
  jmm::CheckResult r = jmm::check_consistency(trace.events());
  EXPECT_TRUE(r.ok()) << r.report();
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixParams>& info) {
  const MatrixParams& p = info.param;
  std::ostringstream os;
  switch (p.detection) {
    case DetectionMode::kAtAcquire: os << "acq"; break;
    case DetectionMode::kBackground: os << "bg"; break;
    case DetectionMode::kBoth: os << "both"; break;
    case DetectionMode::kNone: os << "none"; break;
  }
  os << (p.jmm_guard ? "_jmm" : "_nojmm") << "_bk" << p.backoff
     << (p.strict_priority ? "_strict" : "_rr");
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConfigMatrixTest,
    ::testing::Values(
        MatrixParams{DetectionMode::kAtAcquire, true, 0, false},
        MatrixParams{DetectionMode::kAtAcquire, false, 0, false},
        MatrixParams{DetectionMode::kAtAcquire, true, 100, false},
        MatrixParams{DetectionMode::kAtAcquire, true, 50, true},
        MatrixParams{DetectionMode::kBackground, true, 0, false},
        MatrixParams{DetectionMode::kBackground, true, 0, true},
        MatrixParams{DetectionMode::kBoth, true, 0, false},
        MatrixParams{DetectionMode::kBoth, false, 25, false},
        MatrixParams{DetectionMode::kNone, true, 0, false},
        MatrixParams{DetectionMode::kNone, false, 0, true}),
    matrix_name);

}  // namespace
}  // namespace rvk::core
