#include "obs/recorder.hpp"

#include <algorithm>
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
void (*g_breach_hook)(rt::VThread*, const char*) = nullptr;
}  // namespace detail

void set_breach_hook(void (*hook)(rt::VThread*, const char*)) {
  detail::g_breach_hook = hook;
}

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

const char* env_str(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle

Recorder::Recorder(RecorderConfig cfg)
    : cfg_(cfg), epoch_(std::chrono::steady_clock::now()) {
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
  for (const auto& [name, p] : other.profiles_) {
    MonitorProfile& mine = profile_of(name);
    mine.acquires += p.acquires;
    mine.contended += p.contended;
    mine.releases += p.releases;
    mine.reserving_releases += p.reserving_releases;
    mine.barges += p.barges;
    mine.wait_ticks += p.wait_ticks;
    mine.aborts += p.aborts;
  }
  orphan_events_ += other.orphan_events_;
  dropped_before_run_ += other.dropped_events();
  threads_observed_ += other.threads_observed_;
  foreign_shard_events_ += other.seq_ + other.foreign_shard_events_;
}

bool Recorder::env_enabled() {
  // Naming an output file implies asking for recording.
  return env_flag("RVK_OBS") || env_str("RVK_OBS_TRACE") != nullptr ||
         env_str("RVK_OBS_METRICS") != nullptr;
}

void Recorder::begin_run() {
  for (const auto& [tid, side] : threads_) {
    dropped_before_run_ += side->ring.dropped();
  }
  threads_.clear();
  current_side_ = nullptr;
  // seq_ keeps counting: snapshot order stays globally monotone, and
  // obs.events_recorded spans the whole recorder lifetime.
}

// ---------------------------------------------------------------------------
// Internals

Recorder::ThreadSide* Recorder::side_of(rt::VThread* t) {
  if (t == nullptr) return nullptr;
  if (current_side_ != nullptr && current_side_->thread == t) {
    return current_side_;
  }
  auto it = threads_.find(t->id());
  return it != threads_.end() ? it->second.get() : nullptr;
}

Recorder::ThreadSide& Recorder::ensure_side(rt::VThread* t) {
  auto it = threads_.find(t->id());
  if (it == threads_.end()) {
    auto side = std::make_unique<ThreadSide>(cfg_.ring_capacity);
    side->thread = t;
    side->tid = t->id();
    side->name = t->name();
    side->priority = t->priority();
    it = threads_.emplace(t->id(), std::move(side)).first;
    ++threads_observed_;
  } else {
    // Same id seen again (recorder installed mid-run, or the priority
    // changed): refresh the binding, keep the ring.
    it->second->thread = t;
    it->second->priority = t->priority();
  }
  return *it->second;
}

void Recorder::push(ThreadSide& side, rt::VThread* t, EventKind kind,
                    std::uint64_t a, std::uint64_t b) {
  Event e;
  e.wall_ns = wall_ns();
  e.vclock = vclock_of(t);
  e.a = a;
  e.b = b;
  e.seq = seq_++;
  e.tid = t != nullptr ? t->id() : side.tid;
  e.kind = kind;
  side.ring.push(e);
}

void Recorder::check_not_forbidden(rt::VThread* t, const char* what) {
  // The depth is maintained only while the analyzer marks regions, so this
  // lint activates exactly when the analyzer is installed — satellites of
  // the same zero-cost-off discipline.
  if (t != nullptr && t->forbidden_region_depth != 0 &&
      detail::g_breach_hook != nullptr) {
    detail::g_breach_hook(t, what);
  }
}

// ---------------------------------------------------------------------------
// Recording handlers

void Recorder::record_spawn(rt::VThread* t) {
  check_not_forbidden(t, "obs spawn hook (ring registration)");
  ensure_side(t);
}

void Recorder::record_dispatch(rt::VThread* t) {
  // Dispatch runs in scheduler context, outside any forbidden region, so
  // lazy registration (allocating) is legal — it covers recorders installed
  // after threads were spawned.
  ThreadSide& s = ensure_side(t);
  current_side_ = &s;
  push(s, t, EventKind::kDispatch, 0,
       static_cast<std::uint64_t>(t->priority()));
}

void Recorder::record_switch_out(rt::VThread* t, rt::SwitchReason reason) {
  ThreadSide* s = side_of(t);
  current_side_ = nullptr;
  if (s == nullptr) {
    ++orphan_events_;
    return;
  }
  EventKind kind = EventKind::kSwitchYield;
  switch (reason) {
    case rt::SwitchReason::kYield:  kind = EventKind::kSwitchYield; break;
    case rt::SwitchReason::kBlock:  kind = EventKind::kSwitchBlock; break;
    case rt::SwitchReason::kSleep:  kind = EventKind::kSwitchSleep; break;
    case rt::SwitchReason::kFinish: kind = EventKind::kSwitchFinish; break;
  }
  push(*s, t, kind, 0, 0);
}

MonitorProfile& Recorder::profile_of(std::string_view name) {
  auto it = profiles_.find(name);
  if (it == profiles_.end()) {
    it = profiles_.emplace(std::string(name), MonitorProfile{}).first;
  }
  return it->second;
}

void Recorder::record_monitor_contend(rt::VThread* t, const void* m,
                                      std::string_view name,
                                      int deposited_priority) {
  check_not_forbidden(t, "obs monitor-contend hook (profile registration)");
  ThreadSide& s = ensure_side(t);
  ++profile_of(name).contended;
  const std::uint64_t w = wall_ns();
  const std::uint64_t v = vclock_of(t);
  if (!s.wait_pending) {
    s.wait_pending = true;
    s.wait_wall = w;
    s.wait_vclock = v;
  }
  // A waiter that outranks the deposited owner priority is a priority
  // inversion in the making (§2): stamp it so the acquire closes the
  // paper's headline latency, blocked → holding.
  if (t->priority() > deposited_priority && !s.inversion_pending) {
    s.inversion_pending = true;
    s.inv_wall = w;
    s.inv_vclock = v;
  }
  push(s, t, EventKind::kMonitorContend,
       reinterpret_cast<std::uintptr_t>(m),
       static_cast<std::uint64_t>(deposited_priority));
}

void Recorder::record_monitor_acquired(rt::VThread* t, const void* m,
                                       std::string_view name,
                                       bool contended) {
  check_not_forbidden(t, "obs monitor-acquire hook (profile registration)");
  ThreadSide& s = ensure_side(t);
  MonitorProfile& prof = profile_of(name);
  ++prof.acquires;
  const std::uint64_t w = wall_ns();
  const std::uint64_t v = vclock_of(t);
  if (contended && s.wait_pending) {
    contention_wait_ticks_->record(v - s.wait_vclock);
    contention_wait_ns_->record(w - s.wait_wall);
    prof.wait_ticks += v - s.wait_vclock;
  }
  s.wait_pending = false;
  if (contended && s.inversion_pending) {
    inversion_ticks_->record(v - s.inv_vclock);
    inversion_ns_->record(w - s.inv_wall);
  }
  s.inversion_pending = false;
  push(s, t, EventKind::kMonitorAcquire,
       reinterpret_cast<std::uintptr_t>(m), contended ? 1 : 0);
}

void Recorder::record_monitor_barge(rt::VThread* t, const void* m,
                                    std::string_view name) {
  check_not_forbidden(t, "obs monitor-barge hook (profile registration)");
  ThreadSide& s = ensure_side(t);
  ++profile_of(name).barges;
  push(s, t, EventKind::kMonitorBarge, reinterpret_cast<std::uintptr_t>(m),
       0);
}

void Recorder::record_monitor_release(rt::VThread* t, const void* m,
                                      std::string_view name, bool reserving) {
  // Forbidden-safe: heterogeneous map find (no key allocation), counter
  // bumps, ring store.  Unknown monitors are skipped, not registered.
  auto it = profiles_.find(name);
  if (it != profiles_.end()) {
    ++it->second.releases;
    if (reserving) ++it->second.reserving_releases;
  }
  ThreadSide* s = side_of(t);
  if (s == nullptr) {
    ++orphan_events_;
    return;
  }
  push(*s, t, EventKind::kMonitorRelease,
       reinterpret_cast<std::uintptr_t>(m), reserving ? 1 : 0);
}

void Recorder::record_monitor_abandon(rt::VThread* t, const void* m,
                                      std::string_view name, bool cancelled,
                                      std::uint64_t waited_ticks) {
  // Forbidden-safe: abandon_acquire fires this inside its forbidden region —
  // find-only profile lookup, pre-sized histogram record, ring store.
  auto it = profiles_.find(name);
  if (it != profiles_.end()) ++it->second.aborts;
  abandon_wait_ticks_->record(waited_ticks);
  ThreadSide* s = side_of(t);
  if (s == nullptr) {
    ++orphan_events_;
    return;
  }
  // The contention window closed without an acquisition: drop the pending
  // contend→acquire stamps so a later, unrelated acquire cannot absorb this
  // abandoned wait into the latency histograms.
  s->wait_pending = false;
  s->inversion_pending = false;
  push(*s, t, EventKind::kMonitorAbandon, reinterpret_cast<std::uintptr_t>(m),
       cancelled ? 1 : 0);
}

void Recorder::record_engine(EventKind kind, rt::VThread* t,
                             std::uint64_t frame, const void* m,
                             std::uint64_t aux) {
  // Forbidden-safe: several of these fire from inside commit/abort.  The
  // undo-log counters count every thread, registered or not.
  if (kind == EventKind::kUndoReplay) {
    ++*log_rollbacks_;
    rollback_bytes_->record(aux * sizeof(std::uint64_t));
  } else if (kind == EventKind::kSectionCommit && t->sync_depth == 0) {
    ++*log_commit_discards_;
  }
  ThreadSide* s = side_of(t);
  if (s == nullptr) {
    ++orphan_events_;
    return;
  }
  const std::uint64_t w = wall_ns();
  const std::uint64_t v = vclock_of(t);
  if (kind == EventKind::kRevokeRequest && !s->rollback_pending) {
    // First request against this thread opens the rollback-latency window;
    // it closes when the victim restarts its section (kSectionRetry).
    s->rollback_pending = true;
    s->rb_wall = w;
    s->rb_vclock = v;
  } else if (kind == EventKind::kSectionRetry && s->rollback_pending) {
    rollback_ticks_->record(v - s->rb_vclock);
    rollback_ns_->record(w - s->rb_wall);
    s->rollback_pending = false;
  }
  const std::uint64_t a =
      frame != 0 ? frame : reinterpret_cast<std::uintptr_t>(m);
  push(*s, t, kind, a, aux);
}

// ---------------------------------------------------------------------------
// Consumption

const EventRing* Recorder::ring_of(std::uint32_t tid) const {
  auto it = threads_.find(tid);
  return it != threads_.end() ? &it->second->ring : nullptr;
}

std::string_view Recorder::thread_name(std::uint32_t tid) const {
  auto it = threads_.find(tid);
  return it != threads_.end() ? std::string_view(it->second->name)
                              : std::string_view();
}

std::uint64_t Recorder::dropped_events() const {
  std::uint64_t n = dropped_before_run_;
  for (const auto& [tid, side] : threads_) n += side->ring.dropped();
  return n;
}

std::vector<Event> Recorder::snapshot() const {
  std::vector<Event> out;
  for (const auto& [tid, side] : threads_) {
    side->ring.for_each([&](const Event& e) { out.push_back(e); });
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

void Recorder::export_metrics(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& context) {
  registry_.set("obs.events_recorded", seq_ + foreign_shard_events_);
  registry_.set("obs.events_dropped", dropped_events());
  registry_.set("obs.orphan_events", orphan_events_);
  registry_.set("obs.threads_observed", threads_observed_);
  // Events recorded on absorbed peer shards: present in the merged metrics
  // above, absent from this (single-shard) trace.
  registry_.set("obs.foreign_shard_events", foreign_shard_events_);
  for (const auto& [name, p] : profiles_) {
    const std::string prefix = "monitor." + name + ".";
    registry_.set(prefix + "acquires", p.acquires);
    registry_.set(prefix + "contended", p.contended);
    registry_.set(prefix + "releases", p.releases);
    registry_.set(prefix + "reserving_releases", p.reserving_releases);
    registry_.set(prefix + "barges", p.barges);
    registry_.set(prefix + "wait_ticks", p.wait_ticks);
    registry_.set(prefix + "aborts", p.aborts);
  }
  registry_.write_json(os, context);
}

void Recorder::export_chrome_trace(std::ostream& os) const {
  std::vector<TraceThread> threads;
  threads.reserve(threads_.size());
  for (const auto& [tid, side] : threads_) {
    threads.push_back(TraceThread{tid, side->name, side->priority});
  }
  std::sort(threads.begin(), threads.end(),
            [](const TraceThread& a, const TraceThread& b) {
              return a.tid < b.tid;
            });
  write_chrome_trace(snapshot(), threads, os);
}

}  // namespace rvk::obs
