// Per-layer metrics and the Chrome trace export, shared by the workloads.
#include <algorithm>
#include <array>
#include <fstream>

#include "workload.hpp"

namespace rvk::bench {
namespace {

using E = core::EngineStats;
constexpr std::array<std::uint64_t E::*, 19> kEngineFields = {
    &E::sections_entered,          &E::sections_committed,
    &E::frames_aborted,            &E::rollbacks_completed,
    &E::revocations_requested,     &E::revocations_denied_pinned,
    &E::revocations_denied_budget, &E::revocations_dropped_stale,
    &E::revocations_lost_to_commit, &E::inversions_detected_acquire,
    &E::inversions_detected_background, &E::deadlocks_detected,
    &E::deadlocks_broken,          &E::frames_pinned,
    &E::foreign_reads_observed,    &E::spec_allocs_reclaimed,
    &E::words_undone,              &E::log_appends,
    &E::entry_aborts};

using M = monitor::MonitorStats;
constexpr std::array<std::uint64_t M::*, 12> kMonitorFields = {
    &M::acquires, &M::contended, &M::handoffs, &M::reservations,
    &M::steals,   &M::waits,     &M::notifies, &M::aborts,
    &M::timeouts, &M::cancels,   &M::bias_grants, &M::bias_revocations};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

void add(core::EngineStats& sum, const core::EngineStats& s) {
  for (auto f : kEngineFields) sum.*f += s.*f;
}

void add(monitor::MonitorStats& sum, const monitor::MonitorStats& s) {
  for (auto f : kMonitorFields) sum.*f += s.*f;
}

bool same(const core::EngineStats& a, const core::EngineStats& b) {
  return std::all_of(kEngineFields.begin(), kEngineFields.end(),
                     [&](auto f) { return a.*f == b.*f; });
}

void layer_metrics(const std::vector<const Ledger*>& ledgers,
                   const Counters& c, double plain_write_ns, Metrics& m) {
  std::array<double, kActs> ns{};
  std::array<double, kActs> n{};
  std::array<double, kLayers> layer{};
  double wall = 0.0;
  // Sample-weighted sums of the per-op means, and exact op counts.
  double get_ns = 0.0, set_ns = 0.0, yield_ns = 0.0;
  double get_k = 0.0, set_k = 0.0, yield_k = 0.0, gets = 0.0, sets = 0.0;
  for (const Ledger* l : ledgers) {
    for (std::size_t i = 0; i < kActs; ++i) {
      ns[i] += l->act_ns(static_cast<Act>(i));
      n[i] += static_cast<double>(l->act_count(static_cast<Act>(i)));
    }
    for (std::size_t i = 0; i < kLayers; ++i) {
      layer[i] += l->layer_ns(static_cast<Layer>(i));
    }
    wall += l->wall_ns();
    const auto k = [](const OpSample& s) { return static_cast<double>(s.sampled); };
    get_ns += l->op_ns(l->gets()) * k(l->gets());
    set_ns += l->op_ns(l->sets()) * k(l->sets());
    yield_ns += l->op_ns(l->plain_yields()) * k(l->plain_yields());
    get_k += k(l->gets());
    set_k += k(l->sets());
    yield_k += k(l->plain_yields());
    gets += static_cast<double>(l->gets().count);
    sets += static_cast<double>(l->sets().count);
  }
  const auto a = [](Act x) { return static_cast<std::size_t>(x); };
  const auto per_act = [&](Act x) { return ratio(ns[a(x)], n[a(x)]); };
  const core::EngineStats& es = c.engine;
  const monitor::MonitorStats& ms = c.monitors;
  const double sections = static_cast<double>(c.sections);
  const double attempts = n[a(Act::kBody)];
  const double write_ns = ratio(set_ns, set_k);

  m["rt.spawn_ns"] = per_act(Act::kSpawn);
  m["rt.finish_ns"] = per_act(Act::kFinish);
  m["rt.switch_ns"] = per_act(Act::kYield);
  m["rt.yield_ns"] = ratio(yield_ns, yield_k);
  m["rt.dispatches_per_section"] =
      ratio(static_cast<double>(c.dispatches), sections);
  m["heap.read_ns"] = ratio(get_ns, get_k);
  m["heap.write_ns"] = write_ns;
  m["heap.reads_per_section"] = ratio(gets, sections);
  m["heap.writes_per_section"] = ratio(sets, sections);
  m["log.append_ns"] =
      plain_write_ns > 0.0 ? std::max(0.0, write_ns - plain_write_ns) : 0.0;
  m["log.appends_per_section"] =
      ratio(static_cast<double>(es.log_appends), sections);
  m["log.words_undone"] = static_cast<double>(es.words_undone);
  m["log.undo_ns_per_word"] =
      ratio(ns[a(Act::kRollback)], static_cast<double>(es.words_undone));
  m["core.enter_ns"] = per_act(Act::kEnter);
  m["core.commit_ns"] =
      ratio(ns[a(Act::kCommit)], attempts - n[a(Act::kRollback)]);
  m["core.rollback_ns"] = per_act(Act::kRollback);
  m["core.rollbacks"] = static_cast<double>(es.rollbacks_completed);
  m["core.reexec_frac"] = ratio(attempts - sections, attempts);
  m["core.commit_ratio"] = ratio(static_cast<double>(es.sections_committed),
                                 static_cast<double>(es.sections_entered));
  m["core.revocations_requested"] = static_cast<double>(es.revocations_requested);
  m["core.revocations_lost_to_commit"] =
      static_cast<double>(es.revocations_lost_to_commit);
  m["core.entry_aborts"] = static_cast<double>(es.entry_aborts);
  m["monitor.enter_ns"] = per_act(Act::kMonEnter);
  m["monitor.release_ns"] = per_act(Act::kMonRelease);
  m["monitor.contended_frac"] = ratio(static_cast<double>(ms.contended),
                                      static_cast<double>(ms.acquires));
  m["monitor.handoffs"] = static_cast<double>(ms.handoffs);
  m["monitor.bias_grants"] = static_cast<double>(ms.bias_grants);
  m["monitor.timeouts"] = static_cast<double>(ms.timeouts);
  m["trace.unattributed_frac"] =
      ratio(layer[static_cast<std::size_t>(Layer::kUnattributed)], wall);
  for (std::size_t i = 0; i < kLayers; ++i) {
    if (static_cast<Layer>(i) == Layer::kUnattributed) continue;
    m[std::string("trace.self_frac.") + kLayerNames[i]] = ratio(layer[i], wall);
  }
}

bool write_chrome_trace(const std::string& path, std::vector<Span> spans,
                        double ns_per_stamp,
                        const std::vector<std::string>& class_names,
                        std::size_t first_n, std::size_t slowest_n) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& x, const Span& y) { return x.spawn < y.spawn; });
  const std::uint64_t base = spans.empty() ? 0 : spans.front().spawn;
  const std::size_t first = std::min(first_n, spans.size());
  std::vector<const Span*> keep;
  for (std::size_t i = 0; i < first; ++i) keep.push_back(&spans[i]);
  std::vector<const Span*> hi;
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (spans[i].cls == 0) hi.push_back(&spans[i]);
  }
  const std::size_t slow = std::min(slowest_n, hi.size());
  std::partial_sort(hi.begin(), hi.begin() + static_cast<std::ptrdiff_t>(slow),
                    hi.end(), [](const Span* x, const Span* y) {
                      return x->latency_ticks > y->latency_ticks;
                    });
  keep.insert(keep.end(), hi.begin(), hi.begin() + static_cast<std::ptrdiff_t>(slow));

  std::ofstream os(path);
  if (!os.good()) return false;
  const auto us = [&](std::uint64_t t) {
    return static_cast<double>(t - base) * ns_per_stamp / 1000.0;
  };
  bool first_event = true;
  const auto event = [&](const Span& s, const std::string& name, char ph,
                         std::uint64_t t, bool with_args) {
    os << (first_event ? "\n" : ",\n") << "{\"name\":\"" << name
       << "\",\"cat\":\"unit\",\"ph\":\"" << ph << "\",\"id\":" << s.id
       << ",\"pid\":1,\"tid\":" << static_cast<int>(s.shard)
       << ",\"ts\":" << us(t);
    if (with_args) {
      os << ",\"args\":{\"class\":\"" << class_names[s.cls]
         << "\",\"latency_ticks\":" << s.latency_ticks
         << ",\"attempts\":" << s.attempts << "}";
    }
    os << "}";
    first_event = false;
  };
  const auto phase = [&](const Span& s, const char* name, std::uint64_t b,
                         std::uint64_t e) {
    if (b == 0 || e <= b) return;
    event(s, name, 'b', b, false);
    event(s, name, 'e', e, false);
  };
  // One async track per unit, with its queue / entry / body / commit phases
  // nested inside.
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (const Span* s : keep) {
    const std::string name = class_names[s->cls] + "#" + std::to_string(s->id);
    event(*s, name, 'b', s->spawn, true);
    phase(*s, "queue", s->spawn, s->first_run);
    phase(*s, "entry", s->call, s->body_start);
    phase(*s, "body", s->body_start, s->body_end);
    phase(*s, "commit", s->body_end, s->ret);
    event(*s, name, 'e', std::max(s->ret, s->spawn), false);
  }
  os << "\n]}\n";
  return os.good();
}

}  // namespace rvk::bench
