#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "support/timing.hpp"

namespace perfbench {

// ---- sample statistics ----------------------------------------------------

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double tail_percentile(std::size_t n) {
  // Samples beyond the nearest-rank index, counted in integers so that
  // p90 of exactly 100 samples qualifies.
  double pct = 50.0;
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (n - std::min(rank, n) >= 10) pct = p;
  }
  return pct;
}

tail_stat tail_of(std::vector<double> v) {
  tail_stat t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.pct = tail_percentile(v.size());
  t.value = percentile(v, t.pct);
  return t;
}

series_stat summarize(std::vector<double> v) {
  series_stat s;
  std::sort(v.begin(), v.end());
  s.p50 = percentile(v, 50.0);
  s.tail = tail_of(std::move(v));
  return s;
}

series_stat summarize_windows(const std::vector<double>& v,
                              std::size_t window) {
  if (window == 0 || v.size() < 2 * window) return summarize(v);
  std::vector<double> p50s;
  std::vector<double> tails;
  tail_stat shape;
  for (std::size_t lo = 0; lo + window <= v.size(); lo += window) {
    std::vector<double> w(v.begin() + static_cast<std::ptrdiff_t>(lo),
                          v.begin() + static_cast<std::ptrdiff_t>(lo + window));
    const series_stat s = summarize(std::move(w));
    p50s.push_back(s.p50);
    tails.push_back(s.tail.value);
    shape = s.tail;
  }
  series_stat out;
  out.p50 = median(p50s);
  out.tail = shape;
  out.tail.value = median(tails);
  out.tail.samples = v.size();
  return out;
}

// ---- process / host -------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned host_nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

namespace {
lhws::task<int> trivial_root(std::int64_t* entered) {
  *entered = lhws::now_ns();
  co_return 0;
}
}  // namespace

double scheduler_spinup_s(const lhws::scheduler_options& so) {
  std::int64_t entered = 0;
  const std::int64_t t0 = lhws::now_ns();
  lhws::scheduler s(so);
  (void)s.run(trivial_root(&entered));
  return static_cast<double>(entered - t0) * 1e-9;
}

// ---- spans ----------------------------------------------------------------

std::uint64_t span_log::next_id() {
  std::lock_guard<std::mutex> g(mu_);
  return next_id_++;
}

bool span_log::record(const span& s) {
  std::lock_guard<std::mutex> g(mu_);
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return false;
  }
  spans_.push_back(s);
  return true;
}

std::vector<std::pair<std::string, double>> span_log::self_us_by_layer()
    const {
  std::lock_guard<std::mutex> g(mu_);
  std::unordered_map<std::uint64_t, std::vector<const span*>> children;
  for (const span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> by_layer;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const span& s : spans_) {
    // Union of the children's intervals, clipped to this span.
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      iv.clear();
      for (const span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_a = 0;
      std::int64_t cur_b = -1;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    by_layer[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-3;
  }
  return {by_layer.begin(), by_layer.end()};
}

bool span_log::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> g(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"dropped\":" << dropped_ << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::size_t span_log::roots() const {
  std::lock_guard<std::mutex> g(mu_);
  std::size_t n = 0;
  for (const span& s : spans_) n += s.parent == 0 ? 1 : 0;
  return n;
}

void add_self_time(result& r, const span_log& log) {
  const std::size_t ops = log.roots();
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  for (const auto& [layer, us] : log.self_us_by_layer()) {
    r.add_layer(layer + ".self_us", us * per, "us/op");
  }
  r.add_info("spans_dropped", std::to_string(log.dropped()));
}

// ---- runtime totals -------------------------------------------------------

void run_totals::absorb(const lhws::scheduler& s) {
  add(s.stats(), s.histograms(), s.requests());
  wall_ms += s.stats().elapsed_ms;
  workers = s.options().workers;
}

void run_totals::absorb(const run_totals& o) {
  add(o.stats, o.hists, o.requests);
  wall_ms += o.wall_ms;
  workers = o.workers;
}

void run_totals::add(const lhws::rt::run_stats& o,
                     const lhws::obs::latency_histograms& h,
                     const std::vector<lhws::obs::request_record>& reqs) {
  lhws::rt::run_stats& a = stats;
  a.segments_executed += o.segments_executed;
  a.batches_injected += o.batches_injected;
  a.resumes_delivered += o.resumes_delivered;
  a.deque_switches += o.deque_switches;
  a.steal_attempts += o.steal_attempts;
  a.successful_steals += o.successful_steals;
  a.failed_contended += o.failed_contended;
  a.suspensions += o.suspensions;
  a.resumes_direct += o.resumes_direct;
  a.parks += o.parks;
  a.park_timeouts += o.park_timeouts;
  a.unparks += o.unparks;
  a.max_deques_per_worker =
      std::max(a.max_deques_per_worker, o.max_deques_per_worker);
  a.alloc.magazine_hits += o.alloc.magazine_hits;
  a.alloc.magazine_misses += o.alloc.magazine_misses;
  a.alloc.remote_pushes += o.alloc.remote_pushes;
  a.alloc.fallback_allocs += o.alloc.fallback_allocs;
  a.alloc.slab_bytes = std::max(a.alloc.slab_bytes, o.alloc.slab_bytes);
  hists.merge(h);
  for (const auto& rq : reqs) {
    if (requests.size() >= request_cap) break;
    requests.push_back(rq);
  }
}

void add_runtime_layers(result& r, const run_totals& t, double ops) {
  const lhws::rt::run_stats& s = t.stats;
  const double per = ops > 0 ? 1.0 / ops : 0.0;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  r.add_layer("runtime.steal_attempts", d(s.steal_attempts) * per, "count/op");
  r.add_layer("runtime.steal_hit_ratio",
              ratio(d(s.successful_steals), d(s.steal_attempts)), "ratio");
  r.add_layer("runtime.failed_contended", d(s.failed_contended) * per,
              "count/op");
  r.add_layer("runtime.steal_latency_p50_ns",
              d(t.hists.steal_latency.quantile(0.5)), "ns");
  r.add_layer("runtime.busy_ratio",
              ratio(d(t.hists.segment_duration.sum()) * 1e-6,
                    t.wall_ms * static_cast<double>(t.workers)),
              "ratio");
  r.add_layer("runtime.suspensions", d(s.suspensions) * per, "count/op");
  r.add_layer("runtime.resumes_direct_ratio",
              ratio(d(s.resumes_direct), d(s.resumes_delivered)), "ratio");
  r.add_layer("runtime.batches_injected", d(s.batches_injected) * per,
              "count/op");
  r.add_layer("runtime.deque_switches", d(s.deque_switches) * per, "count/op");
  r.add_layer("runtime.max_deques_per_worker", d(s.max_deques_per_worker),
              "count");
  const lhws::obs::log_histogram& wake = t.hists.wake_latency;
  r.add_layer("runtime.wake_p50_ns", d(wake.quantile(0.5)), "ns");
  r.add_layer("runtime.wake_tail_ns",
              d(wake.quantile(tail_percentile(wake.count()) / 100.0)), "ns");
  r.add_layer("runtime.parks", d(s.parks) * per, "count/op");
  r.add_layer("runtime.park_timeouts", d(s.park_timeouts) * per, "count/op");
  r.add_layer("runtime.unparks", d(s.unparks) * per, "count/op");

  r.add_layer("mem.hit_rate", s.alloc.hit_rate(), "ratio");
  r.add_layer("mem.misses", d(s.alloc.magazine_misses) * per, "count/op");
  r.add_layer("mem.remote_frees", d(s.alloc.remote_pushes) * per, "count/op");
  r.add_layer("mem.fallback_allocs", d(s.alloc.fallback_allocs) * per,
              "count/op");
  r.add_layer("mem.slab_bytes", d(s.alloc.slab_bytes), "bytes");
}

void add_request_layers(result& r,
                        const std::vector<lhws::obs::request_record>& reqs) {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto d = [](std::int64_t v) { return static_cast<double>(v); };
  // Request decomposition: means over the request records, and closure =
  // how much of end-begin the four components account for.
  double run = 0, dlt = 0, wk = 0, dq = 0, span_sum = 0;
  for (const auto& rq : reqs) {
    run += d(rq.running_ns);
    dlt += d(rq.delta_ns);
    wk += d(rq.wake_ns);
    dq += d(rq.deque_ns);
    span_sum += d(rq.end_ns - rq.begin_ns);
  }
  const double n = static_cast<double>(reqs.size());
  r.add_layer("obs.request_running_us", ratio(run, n) * 1e-3, "us");
  r.add_layer("obs.request_delta_us", ratio(dlt, n) * 1e-3, "us");
  r.add_layer("obs.request_wake_us", ratio(wk, n) * 1e-3, "us");
  r.add_layer("obs.request_deque_us", ratio(dq, n) * 1e-3, "us");
  r.add_layer("obs.span_closure", ratio(run + dlt + wk + dq, span_sum),
              "ratio");
  r.add_info("obs_requests", std::to_string(reqs.size()));
}

// ---- output ----------------------------------------------------------------

namespace {

std::string esc(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void metrics_obj(std::ostringstream& o, const std::vector<metric>& ms) {
  o << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    o << (i == 0 ? "" : ",") << "\"" << esc(ms[i].name) << "\":{\"value\":"
      << num(ms[i].value) << ",\"unit\":\"" << esc(ms[i].unit) << "\"}";
  }
  o << "}";
}

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__) && defined(__SANITIZE_THREAD__)
  return "address,thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

}  // namespace

std::string to_json(const options& o, const result& r) {
  std::ostringstream s;
  s << "{\"workload\":\"" << esc(o.workload) << "\",\"seed\":" << o.seed
    << ",\"seconds\":" << num(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
    << ",\"smoke\":" << (o.smoke ? 1 : 0)
    << ",\"correct\":" << (r.correct ? "true" : "false")
    << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
    << ",\"e2e\":";
  metrics_obj(s, r.e2e);
  s << ",\"layer\":";
  metrics_obj(s, r.layer);
  s << ",\"detail\":";
  metrics_obj(s, r.detail);
  s << ",\"info\":{";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    s << (i == 0 ? "" : ",") << "\"" << esc(r.info[i].first) << "\":\""
      << esc(r.info[i].second) << "\"";
  }
  s << "},\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    s << (i == 0 ? "" : ",") << "\"" << esc(r.errors[i]) << "\"";
  }
  s << "],\"build\":{\"compiler\":\"" << esc(__VERSION__)
    << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"cxx_flags\":\""
    << esc(PERFBENCH_CXX_FLAGS) << "\",\"sanitizer\":\"" << sanitizer()
    << "\",\"hw_concurrency\":" << std::thread::hardware_concurrency()
    << "}}";
  return s.str();
}

}  // namespace perfbench
