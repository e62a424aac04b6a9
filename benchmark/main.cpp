// revoke_bench: runs one workload of the repository benchmark and prints one
// JSON document with its raw per-rep values, pooled tick percentiles, output
// checks and (with --trace 1) the per-layer ledger metrics.  benchmark/run.py
// builds this binary, summarises the document and prints the final result.
//
//   revoke_bench --workload W --seed N --seconds S [--trace 0|1] [--smoke]
//                [--trace-out FILE]
//
// Reps cycle through the workload's rep seeds, derived from --seed.  Rep 0
// warms up; the first cycle supplies the pooled tick percentiles; every later
// rep must reproduce its cycle-mate's tick digest exactly.  Reps continue
// until --seconds of measurement have passed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workload.hpp"

namespace {

using namespace rvk::bench;

// Minimal JSON emitter: numbers keep every digit (%.17g).
class Json {
 public:
  void open(char c) {
    sep();
    out_ += c;
    first_ = true;
  }
  void close(char c) {
    out_ += c;
    first_ = false;
  }
  void key(const std::string& k) {
    sep();
    str(k);
    out_ += ':';
    first_ = true;
  }
  void value(double v) {
    sep();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void value(std::uint64_t v) {
    sep();
    out_ += std::to_string(v);
  }
  void value(bool v) {
    sep();
    out_ += v ? "true" : "false";
  }
  void value(const std::string& v) {
    sep();
    str(v);
  }
  template <class V>
  void field(const std::string& k, const V& v) {
    key(k);
    value(v);
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void str(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  std::string out_;
  bool first_ = true;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "revoke_bench: %s\nusage: revoke_bench --workload "
               "{open_revocation|open_blocking|paper_writes|sharded2} --seed N "
               "--seconds S [--trace 0|1] [--smoke] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(what);
  return v;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

template <class T>
double mean(const std::vector<T>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (T x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool have_seed = false, trace = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value after " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      name = next();
    } else if (a == "--seed") {
      seed = parse_u64(next(), "bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      const char* v = next();
      char* end = nullptr;
      seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') usage("bad --seconds");
    } else if (a == "--trace") {
      trace = parse_u64(next(), "bad --trace") != 0;
    } else if (a == "--smoke") {
      smoke = true;
    } else if (a == "--trace-out") {
      trace_out = next();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || seconds <= 0.0) usage("--seed and --seconds are required");

  std::unique_ptr<Workload> w;
  if (name == "open_revocation") {
    w = make_open_loop(true, smoke);
  } else if (name == "open_blocking") {
    w = make_open_loop(false, smoke);
  } else if (name == "paper_writes") {
    w = make_paper_writes(smoke);
  } else if (name == "sharded2") {
    w = make_sharded();
  } else {
    usage("unknown --workload");
  }

  Checks checks;
  w->cross_check(sub_seed(seed, 0), checks);

  // ---- Untraced reps ----
  std::vector<RepOut> reps;
  const std::uint64_t cycle = w->subseeds();
  std::vector<std::uint64_t> digests(cycle, 0);
  std::vector<std::uint64_t> hi_ticks, lo_ticks;
  std::vector<double> hi_wall;  // every hi unit of the timed reps, us
  std::uint64_t attempted = 0, failed = 0;
  std::string rep_error, repeat_error;
  const double start = wall_now();
  for (std::uint64_t r = 0;; ++r) {
    const std::uint64_t k = r % cycle;
    RepOut out = w->rep(sub_seed(seed, k));
    if (!out.error.empty() && rep_error.empty()) {
      rep_error = "rep " + std::to_string(r) + ": " + out.error;
    }
    attempted += out.offered;
    failed += out.failed;
    if (r < cycle) {
      digests[k] = out.digest;
      hi_ticks.insert(hi_ticks.end(), out.hi_ticks.begin(), out.hi_ticks.end());
      lo_ticks.insert(lo_ticks.end(), out.lo_ticks.begin(), out.lo_ticks.end());
    } else if (out.digest != digests[k] && repeat_error.empty()) {
      repeat_error = "rep " + std::to_string(r) +
                     " differs in ticks from the first rep of its seed";
    }
    if (r > 0) {
      hi_wall.insert(hi_wall.end(), out.hi_wall_us.begin(), out.hi_wall_us.end());
    }
    out.hi_ticks.clear();
    out.lo_ticks.clear();
    out.hi_wall_us.clear();
    reps.push_back(std::move(out));
    if (r >= cycle && wall_now() - start >= seconds) break;
  }
  checks.expect(rep_error.empty(), "reps.outputs", rep_error);
  checks.expect(repeat_error.empty(), "reps.ticks_repeat", repeat_error);

  // ---- Traced reps ----
  // Each traced rep runs right after an untraced twin on the same seed, and
  // trace.overhead is the median of the pairs' wall ratios: host speed can
  // change by 1.6x within a second, so a ratio against reps run earlier, or
  // a single pair, mostly measures the host.  The first traced rep supplies
  // the ledger metrics and the Chrome trace.
  Metrics layer;
  if (trace) {
    constexpr int kPairs = 3;
    TracedRep t;
    std::vector<double> ratios;
    for (int i = 0; i < kPairs; ++i) {
      const RepOut plain = w->rep(sub_seed(seed, 0));
      TracedRep ti = w->traced_rep(sub_seed(seed, 0));
      checks.expect(ti.rep.error.empty(), "traced.outputs", ti.rep.error);
      checks.expect(ti.rep.digest == digests[0], "traced.ticks_match_untraced",
                    "tracing changed a tick result");
      checks.expect(ti.conserved, "traced.ledger_conserved",
                    "layer self times do not add up to the traced wall time");
      ratios.push_back(ti.rep.run_s / plain.run_s);
      if (i == 0) t = std::move(ti);
    }
    layer = t.metrics;
    layer["svc.hi_p999_ticks"] =
        static_cast<double>(nearest_rank(hi_ticks, 999));
    layer["trace.overhead"] = median(ratios);
    w->extra_metrics(seed, layer);
    if (!trace_out.empty()) {
      const bool wrote = write_chrome_trace(trace_out, std::move(t.spans),
                                            t.ns_per_stamp, t.class_names,
                                            10'000, 100);
      checks.expect(wrote, "traced.chrome_trace_written", trace_out);
    }
  }

  // ---- Report ----
  Json j;
  j.open('{');
  j.field("workload", name);
  j.field("seed", seed);
  j.field("smoke", smoke);
  j.field("build_type", std::string(RVK_BENCH_BUILD_TYPE));
#ifdef NDEBUG
  j.field("ndebug", true);
#else
  j.field("ndebug", false);
#endif
  j.field("compiler", std::string(RVK_BENCH_COMPILER));
  j.field("correct", checks.ok());
  j.field("attempted", attempted);
  j.field("failed", failed);
  j.field("deterministic", w->deterministic());
  j.field("peak_rss_mb", peak_rss_mb());
  j.key("wall");
  j.open('{');
  j.field("hi_count", static_cast<std::uint64_t>(hi_wall.size()));
  j.field("hi_mean_us", mean(hi_wall));
  j.field("hi_p50_us", nearest_rank(hi_wall, 500));
  j.field("hi_p99_us", nearest_rank(hi_wall, 990));
  j.close('}');
  j.key("ticks");
  j.open('{');
  j.field("hi_count", static_cast<std::uint64_t>(hi_ticks.size()));
  j.field("lo_count", static_cast<std::uint64_t>(lo_ticks.size()));
  j.field("hi_mean_ticks", mean(hi_ticks));
  j.field("lo_mean_ticks", mean(lo_ticks));
  j.field("hi_p50_ticks", nearest_rank(hi_ticks, 500));
  j.field("hi_p99_ticks", nearest_rank(hi_ticks, 990));
  j.field("hi_p999_ticks", nearest_rank(hi_ticks, 999));
  j.field("lo_p50_ticks", nearest_rank(lo_ticks, 500));
  j.field("lo_p99_ticks", nearest_rank(lo_ticks, 990));
  j.close('}');
  j.key("reps");
  j.open('[');
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const RepOut& o = reps[r];
    j.open('{');
    j.field("rep", static_cast<std::uint64_t>(r));
    j.field("sub_seed", static_cast<std::uint64_t>(r % cycle));
    j.field("warmup", r == 0);
    j.field("setup_s", o.setup_s);
    j.field("run_s", o.run_s);
    j.field("sections", o.sections);
    j.field("sections_per_s", static_cast<double>(o.sections) / o.run_s);
    for (const auto& [k, v] : o.extra) j.field(k, v);
    j.close('}');
  }
  j.close(']');
  if (trace) {
    j.key("layer");
    j.open('{');
    for (const auto& [k, v] : layer) j.field(k, v);
    j.close('}');
  }
  j.key("checks");
  j.open('[');
  for (const Checks::Item& c : checks.items()) {
    j.open('{');
    j.field("name", c.name);
    j.field("ok", c.ok);
    j.field("detail", c.detail);
    j.close('}');
  }
  j.close(']');
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return checks.ok() ? 0 : 1;
}
