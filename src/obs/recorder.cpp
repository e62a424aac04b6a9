#include "obs/recorder.hpp"

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/check.hpp"
#include "obs/trace_export.hpp"

namespace rvk::obs {

namespace detail {
// The per-shard install slot.  Deliberately confined to this TU and read
// through the out-of-line current_recorder() below: inlining a TLS access
// into long-running fiber frames lets GCC cache the TLS-derived address
// across swapcontext, which UBSan flags (CLAUDE.md; same rationale as
// rt::current_scheduler()).
thread_local Recorder* g_recorder = nullptr;
std::atomic<int> g_obs_active{0};
Recorder* current_recorder() { return g_recorder; }
}  // namespace detail

namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Shard-merge bookkeeping (DESIGN.md §16).  Each shard's recorder lives in
// the thread-local above; this mutex guards the process-wide count and the
// parked list that carries finished shards' metrics to the last uninstall.
std::mutex g_obs_mu;
int g_obs_count = 0;
std::vector<Recorder*> g_obs_parked;

// Source of run stamps (rt::ObsState::stamp): unique across every recorder
// and run in the process, and never 0, the stamp of a fresh control block.
std::atomic<std::uint64_t> g_obs_stamps{0};

std::uint64_t next_stamp() {
  return g_obs_stamps.fetch_add(1, std::memory_order_relaxed) + 1;
}

const char* env_str(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle

Recorder::Recorder(RecorderConfig cfg)
    : epoch_(std::chrono::steady_clock::now()),
      ring_(cfg.ring_capacity),
      stamp_(next_stamp()) {
  // Pre-create every metric the forbidden-safe handlers touch: creation
  // allocates, so it must happen here, never on a recording path.
  contention_wait_ticks_ =
      &registry_.histogram("monitor.contention_wait_ticks");
  contention_wait_ns_ = &registry_.histogram("monitor.contention_wait_ns");
  abandon_wait_ticks_ = &registry_.histogram("monitor.abandon_wait_ticks");
  inversion_ticks_ = &registry_.histogram("inversion.resolution_ticks");
  inversion_ns_ = &registry_.histogram("inversion.resolution_ns");
  rollback_ticks_ = &registry_.histogram("rollback.latency_ticks");
  rollback_ns_ = &registry_.histogram("rollback.latency_ns");
  rollback_bytes_ = &registry_.histogram("rollback.bytes_undone");
  log_rollbacks_ = &registry_.counter("log.rollbacks_observed");
  log_commit_discards_ = &registry_.counter("log.commit_discards");
}

Recorder* Recorder::install(RecorderConfig cfg) {
  RVK_CHECK_MSG(detail::g_recorder == nullptr,
                "an obs recorder is already installed on this thread "
                "(one per shard)");
  if (const char* v = env_str("RVK_OBS_RING")) {
    const unsigned long long n = std::strtoull(v, nullptr, 10);
    if (n >= 2) cfg.ring_capacity = static_cast<std::size_t>(n);
  }
  {
    std::lock_guard<std::mutex> lk(g_obs_mu);
    ++g_obs_count;
  }
  detail::g_recorder = new Recorder(cfg);
  // Open the dispatchers' fast-path gate only after this shard's slot is
  // populated; other shards that see the gate up but have no recorder of
  // their own still no-op on the per-shard null check.
  detail::g_obs_active.fetch_add(1, std::memory_order_relaxed);
  return detail::g_recorder;
}

void Recorder::uninstall() {
  Recorder* r = detail::g_recorder;
  if (r == nullptr) return;
  detail::g_recorder = nullptr;
  detail::g_obs_active.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(g_obs_mu);
    if (--g_obs_count > 0) {
      // Sibling shards still recording: park this shard's metrics for the
      // last uninstall to absorb.
      g_obs_parked.push_back(r);
      return;
    }
    for (Recorder* p : g_obs_parked) {
      r->absorb(*p);
      delete p;
    }
    g_obs_parked.clear();
  }
  if (const char* path = env_str("RVK_OBS_METRICS")) {
    std::ofstream os(path);
    if (os) r->export_metrics(os, {{"exporter", "rvk-obs"}});
  }
  if (const char* path = env_str("RVK_OBS_TRACE")) {
    std::ofstream os(path);
    if (os) r->export_chrome_trace(os);
  }
  delete r;
}

Recorder* Recorder::active() { return detail::g_recorder; }

void Recorder::absorb(const Recorder& other) {
  registry_.merge_from(other.registry_);
  threads_observed_ += other.threads_observed_;
  foreign_shard_events_ += other.ring_.pushed() + other.foreign_shard_events_;
}

bool Recorder::env_enabled() {
  // Naming an output file implies asking for recording.
  return env_flag("RVK_OBS") || env_str("RVK_OBS_TRACE") != nullptr ||
         env_str("RVK_OBS_METRICS") != nullptr;
}

void Recorder::begin_run() {
  // The ring is not cleared: snapshot() starts at run_start_, and seq keeps
  // counting, so obs.events_recorded spans the whole recorder lifetime.
  run_start_ = ring_.pushed();
  stamp_ = next_stamp();
}

// ---------------------------------------------------------------------------
// Internals

rt::ObsState& Recorder::state_of(rt::VThread* t) {
  if (t->obs.stamp != stamp_) {
    t->obs = rt::ObsState{};
    t->obs.stamp = stamp_;
  }
  return t->obs;
}

void Recorder::name_lane(rt::VThread* t) {
  rt::ObsState& s = state_of(t);
  if (s.lane != 0) return;
  ++threads_observed_;
  auto it = lane_of_.find(t->name());
  if (it == lane_of_.end()) {
    if (lane_names_.size() == kMaxLaneNames) {
      s.lane = ~std::uint32_t{0};  // names no entry: the tid fallback lane
      return;
    }
    lane_names_.push_back(t->name());
    it = lane_of_
             .emplace(t->name(),
                      static_cast<std::uint32_t>(lane_names_.size()))
             .first;
  }
  s.lane = it->second;
}

void Recorder::push(rt::VThread* t, EventKind kind, std::uint64_t a,
                    std::uint64_t b) {
  Event e;
  e.wall_ns = wall_ns();
  e.vclock = vclock_of(t);
  e.a = a;
  e.b = b;
  e.seq = ring_.pushed();
  e.tid = t->id();
  e.kind = kind;
  ring_.push(e);
}

// ---------------------------------------------------------------------------
// Recording handlers

void Recorder::record_spawn(rt::VThread* t) { name_lane(t); }

void Recorder::record_dispatch(rt::VThread* t) {
  // Dispatch runs in scheduler context, outside any forbidden region, so
  // naming (allocating) is legal — it covers threads spawned before install.
  name_lane(t);
  push(t, EventKind::kDispatch, t->obs.lane,
       static_cast<std::uint64_t>(t->priority()));
}

void Recorder::record_switch_out(rt::VThread* t, rt::SwitchReason reason) {
  EventKind kind = EventKind::kSwitchYield;
  switch (reason) {
    case rt::SwitchReason::kYield:  kind = EventKind::kSwitchYield; break;
    case rt::SwitchReason::kBlock:  kind = EventKind::kSwitchBlock; break;
    case rt::SwitchReason::kSleep:  kind = EventKind::kSwitchSleep; break;
    case rt::SwitchReason::kFinish: kind = EventKind::kSwitchFinish; break;
  }
  push(t, kind, 0, 0);
}

void Recorder::record(EventKind kind, rt::VThread* t, std::uint64_t a,
                      std::uint64_t b, std::uint64_t waited) {
  // Forbidden-safe (see the header): pre-created metrics, stores into the
  // thread's control block and a ring store.
  rt::ObsState& s = state_of(t);
  switch (kind) {
    case EventKind::kMonitorContend: {
      const rt::ObsWindow opened{true, wall_ns(), vclock_of(t)};
      if (!s.wait.open) s.wait = opened;
      // A waiter that outranks the deposited owner priority (b) is a
      // priority inversion in the making (§2): stamp it so the acquire
      // closes the paper's headline latency, blocked → holding.
      if (t->priority() > static_cast<int>(b) && !s.inversion.open) {
        s.inversion = opened;
      }
      break;
    }
    case EventKind::kMonitorAcquire:
      if (b != 0 && (s.wait.open || s.inversion.open)) {
        const std::uint64_t w = wall_ns();
        const std::uint64_t v = vclock_of(t);
        if (s.wait.open) {
          contention_wait_ticks_->record(v - s.wait.vclock);
          contention_wait_ns_->record(w - s.wait.wall_ns);
        }
        if (s.inversion.open) {
          inversion_ticks_->record(v - s.inversion.vclock);
          inversion_ns_->record(w - s.inversion.wall_ns);
        }
      }
      s.wait.open = false;
      s.inversion.open = false;
      break;
    case EventKind::kMonitorAbandon:
      abandon_wait_ticks_->record(waited);
      // The contention window closed without an acquisition: drop the
      // pending contend→acquire stamps so a later, unrelated acquire cannot
      // absorb this abandoned wait into the latency histograms.
      s.wait.open = false;
      s.inversion.open = false;
      break;
    case EventKind::kRevokeRequest:
      // The first request against this thread opens the rollback-latency
      // window; it closes when the victim restarts its section.
      if (!s.rollback.open) s.rollback = {true, wall_ns(), vclock_of(t)};
      break;
    case EventKind::kSectionRetry:
      if (s.rollback.open) {
        rollback_ticks_->record(vclock_of(t) - s.rollback.vclock);
        rollback_ns_->record(wall_ns() - s.rollback.wall_ns);
        s.rollback.open = false;
      }
      break;
    case EventKind::kUndoReplay:
      ++*log_rollbacks_;
      rollback_bytes_->record(b * sizeof(std::uint64_t));
      break;
    case EventKind::kSectionCommit:
      // The outermost commit discards the thread's whole undo log.
      if (t->sync_depth == 0) ++*log_commit_discards_;
      break;
    default:
      break;
  }
  push(t, kind, a, b);
}

// ---------------------------------------------------------------------------
// Consumption

std::string_view Recorder::lane_name(std::uint64_t lane) const {
  return lane - 1 < lane_names_.size() ? std::string_view(lane_names_[lane - 1])
                                       : std::string_view();
}

std::vector<Event> Recorder::snapshot() const {
  std::vector<Event> out;
  ring_.for_each([&](const Event& e) {
    if (e.seq >= run_start_) out.push_back(e);
  });
  return out;
}

void Recorder::export_metrics(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& context) {
  registry_.set("obs.events_recorded",
                ring_.pushed() + foreign_shard_events_);
  registry_.set("obs.events_dropped", ring_.dropped());
  registry_.set("obs.threads_observed", threads_observed_);
  // Events recorded on absorbed peer shards: present in the merged metrics
  // above, absent from this (single-shard) trace.
  registry_.set("obs.foreign_shard_events", foreign_shard_events_);
  registry_.write_json(os, context);
}

void Recorder::export_chrome_trace(std::ostream& os) const {
  write_chrome_trace(snapshot(), lane_names_, os);
}

}  // namespace rvk::obs
