// Shared pieces of lhws_perfbench: options, the result record each
// workload fills, sample statistics, the benchmark's own span recorder and
// the JSON writer.
//
// The benchmark never reaches into library internals: every number comes from
// the public API (scheduler::stats()/histograms()/requests(), io::reactor
// accessors, dist::cluster::stats()/peer_rtt_hist(), load::rpc_server) or
// from spans the benchmark records around its own calls into the library.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny sizes for the benchmark's own tests; numbers are not comparable.
  bool smoke = false;
  std::string spans_out;  // traced runs write their spans here
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> e2e;     // the gated end-to-end metrics
  std::vector<metric> layer;   // per-layer metrics (traced run only)
  std::vector<metric> detail;  // named per-workload figures, ungated
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> errors;

  void fail(std::string why) {
    correct = false;
    if (errors.size() < 16) errors.push_back(std::move(why));
  }
  void add_e2e(std::string n, double v, std::string u) {
    e2e.push_back({std::move(n), v, std::move(u)});
  }
  void add_layer(std::string n, double v, std::string u) {
    layer.push_back({std::move(n), v, std::move(u)});
  }
  void add_detail(std::string n, double v, std::string u) {
    detail.push_back({std::move(n), v, std::move(u)});
  }
  void add_info(std::string k, std::string v) {
    info.emplace_back(std::move(k), std::move(v));
  }
};

// ---- sample statistics ----------------------------------------------------

// Nearest-rank percentile (p in [0, 100]) of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// "Tail": the highest percentile of {90, 99, 99.9, 99.99} that still has
// at least ten samples beyond it (p50 when the sample is too small).
double tail_percentile(std::size_t n);
struct tail_stat {
  double value = 0.0;
  double pct = 50.0;
  std::size_t samples = 0;
};
tail_stat tail_of(std::vector<double> v);

// p50 and tail of one measured series, with the tail's percentile and the
// sample count recorded as detail figures next to the value.
struct series_stat {
  double p50 = 0.0;
  tail_stat tail;
};
series_stat summarize(std::vector<double> v);

// Medians over consecutive windows of `window` samples: steadier than one
// pooled tail when the pooled tail would sit on a handful of outliers.
series_stat summarize_windows(const std::vector<double>& v,
                              std::size_t window);

// ---- process / host -------------------------------------------------------

double peak_rss_mb();
unsigned host_nproc();
// Time from scheduler construction until a trivial root starts running.
double scheduler_spinup_s(const lhws::scheduler_options& so);

// ---- the benchmark's own spans --------------------------------------------
//
// Spans carry name, start, end, parent span and a shared request id; the
// name's prefix up to the first '.' is the layer. They are kept in memory
// (bounded; overflow is counted), written out at the end of a traced run,
// and reduced to per-layer self time: a span's duration minus the part of
// its interval covered by its child spans.
struct span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

class span_log {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 20;

  std::uint64_t next_id();
  // Records a finished span; returns false (and counts a drop) when full.
  bool record(const span& s);
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  // Sum of self time per layer, in microseconds.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_us_by_layer()
      const;
  [[nodiscard]] std::size_t roots() const;
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

// Per-layer self time per recorded operation (one root span, parent 0, per
// operation), as "<layer>.self_us" layer metrics. Concurrent child spans
// each count their own self time, so a layer's figure is a sum of time,
// not a share of the operation's wall time.
void add_self_time(result& r, const span_log& log);

// ---- runtime-layer figures shared by the scheduler-driven workloads ------

// Sums of one or more runs of a scheduler (counters add, peaks max,
// histograms merge).
struct run_totals {
  lhws::rt::run_stats stats;
  lhws::obs::latency_histograms hists;
  double wall_ms = 0.0;
  unsigned workers = 0;
  std::vector<lhws::obs::request_record> requests;
  std::size_t request_cap = std::size_t{1} << 18;

  void absorb(const lhws::scheduler& s);
  void absorb(const run_totals& o);

 private:
  void add(const lhws::rt::run_stats& o,
           const lhws::obs::latency_histograms& h,
           const std::vector<lhws::obs::request_record>& reqs);
};

// runtime.* and mem.* layer metrics, counts per operation.
void add_runtime_layers(result& r, const run_totals& t, double ops);
// obs.request_* means over request records and their span closure.
void add_request_layers(result& r,
                        const std::vector<lhws::obs::request_record>& reqs);

// ---- output ----------------------------------------------------------------

std::string to_json(const options& o, const result& r);

}  // namespace perfbench
