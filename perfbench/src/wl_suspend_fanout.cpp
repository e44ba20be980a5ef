// suspend_fanout — one closed-loop root running map_reduce over many
// leaves; each leaf suspends on latency(delta_i) and then computes a tiny
// fib. Suspension, timer firing on the event hub, resume delivery with
// pfor re-injection and cross-worker frees dominate; compute is
// negligible.
//
// Inputs from the seed: delta_i, uniform in [100, 300] us (mean 200 us),
// and the scheduler's victim-selection seed. Leaf i returns i + fib(6), so
// the reduced sum has the closed form L(L-1)/2 + 8L.
#include <chrono>
#include <random>
#include <string>

#include "closed_loop.hpp"
#include "core/algorithms.hpp"
#include "core/latency.hpp"
#include "obs/span.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kLeafFib = 6;
constexpr std::size_t kMaxOvershootSamples = std::size_t{1} << 20;
// A session's operations: enough for a p90 with ten samples beyond it.
constexpr std::size_t kOpsPerSession = 100;
// Extra set-up samples after each session: a spin-up is sub-millisecond.
constexpr unsigned kSpinups = 6;

lhws::task<std::uint64_t> fib(unsigned n) {
  if (n < 2) co_return n;
  auto [a, b] = co_await lhws::fork2(fib(n - 1), fib(n - 2));
  co_return a + b;
}

// Per-root timing of each leaf's latency() await (traced runs only).
struct leaf_probe {
  std::vector<std::int64_t> arm_ns;
  std::vector<std::int64_t> resume_ns;
};

struct fanout_input {
  std::vector<std::int64_t> delta_ns;
  leaf_probe* probe = nullptr;  // null when untraced
};

lhws::task<std::uint64_t> leaf(const fanout_input* in, std::size_t i) {
  const bool traced = in->probe != nullptr;
  bool req = false;
  if (traced) req = co_await lhws::obs::begin_request();
  const std::int64_t t0 = lhws::now_ns();
  const std::uint64_t v = co_await lhws::latency(
      std::chrono::nanoseconds(in->delta_ns[i]), std::uint64_t{i});
  if (traced) {
    in->probe->arm_ns[i] = t0;
    in->probe->resume_ns[i] = lhws::now_ns();
  }
  const std::uint64_t f = co_await fib(kLeafFib);
  if (req) co_await lhws::obs::end_request();
  co_return v + f;
}

// Traced roots record their overshoot samples and, for the first few
// roots only (a root has L leaf spans), the root span with its leaf spans.
struct fanout_trace {
  span_log log;
  std::vector<double> overshoot_us;
  unsigned trees_left = 8;
};

lhws::task<bool> fanout_root(const fanout_input* in, fanout_trace* tr) {
  const std::size_t L = in->delta_ns.size();
  const std::int64_t t0 = lhws::now_ns();
  auto mapper = [in](std::size_t i) { return leaf(in, i); };
  const std::uint64_t sum = co_await lhws::map_reduce<std::uint64_t>(
      0, L, 0, mapper, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  const std::int64_t t1 = lhws::now_ns();
  if (tr != nullptr && tr->overshoot_us.size() < kMaxOvershootSamples) {
    const leaf_probe& p = *in->probe;
    for (std::size_t i = 0; i < L; ++i) {
      tr->overshoot_us.push_back(
          static_cast<double>(p.resume_ns[i] - p.arm_ns[i] - in->delta_ns[i]) *
          1e-3);
    }
  }
  if (tr != nullptr && tr->trees_left > 0) {
    --tr->trees_left;
    const leaf_probe& p = *in->probe;
    const std::uint64_t root = tr->log.next_id();
    tr->log.record({"core.fanout_root", t0, t1, root, 0, root});
    for (std::size_t i = 0; i < L; ++i) {
      tr->log.record({"core.latency", p.arm_ns[i], p.resume_ns[i],
                      tr->log.next_id(), root, root});
    }
  }
  co_return sum == L * (L - 1) / 2 + fib_exact(kLeafFib) * L;
}

}  // namespace

void run_suspend_fanout(const options& o, result& r) {
  const unsigned P = host_nproc();
  const std::size_t L = o.smoke ? 512 : 16384;
  fanout_input in;
  std::mt19937_64 rng(o.seed * 0x9E3779B97F4A7C15ull + 2);
  std::uniform_int_distribution<std::int64_t> delta(100'000, 300'000);
  in.delta_ns.resize(L);
  for (auto& d : in.delta_ns) d = delta(rng);

  lhws::scheduler_options so;
  so.workers = P;
  so.seed = o.seed * 0x9E3779B97F4A7C15ull + 3;
  r.add_info("loop", "closed");
  r.add_info("clients", "1");
  r.add_info("workers", std::to_string(P));
  r.add_info("leaves", std::to_string(L));
  r.add_info("delta_us", "uniform[100,300]");

  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  const closed_loop_phase plain =
      run_closed_loop(so, untraced_s, kOpsPerSession, kSpinups,
                      [&in] { return fanout_root(&in, nullptr); });
  r.attempted += plain.op_ms.size();
  r.failed += plain.wrong;

  if (!o.trace) {
    add_closed_loop_e2e(r, plain.op_ms, plain.session_end, plain.setup_s);
  } else {
    leaf_probe probe;
    probe.arm_ns.resize(L);
    probe.resume_ns.resize(L);
    fanout_input traced_in = in;
    traced_in.probe = &probe;
    fanout_trace tr;
    lhws::scheduler_options traced = so;
    traced.metrics = true;
    traced.spans = true;
    // Short sessions: every leaf is a request record, kept per run.
    const closed_loop_phase t =
        run_closed_loop(traced, o.seconds / 2, 4, 0, [&traced_in, &tr] {
          return fanout_root(&traced_in, &tr);
        });
    r.attempted += t.op_ms.size();
    r.failed += t.wrong;

    const double roots = static_cast<double>(t.op_ms.size());
    const series_stat os = summarize(tr.overshoot_us);
    r.add_layer("core.latency_overshoot_p50_us", os.p50, "us");
    r.add_layer("core.latency_overshoot_tail_us", os.tail.value, "us");
    r.add_detail("latency_overshoot_tail_pct", os.tail.pct, "percentile");
    add_runtime_layers(r, t.totals, roots);
    add_request_layers(r, t.totals.requests);
    add_self_time(r, tr.log);
    r.add_layer("obs.trace_overhead_ratio",
                median(t.op_ms) / median(plain.op_ms), "ratio");
    if (!o.spans_out.empty()) tr.log.write_json(o.spans_out);
  }
  if (r.failed != 0) {
    r.fail("suspend_fanout: " + std::to_string(r.failed) +
           " map_reduce sums differ from the closed form");
  }
}

}  // namespace perfbench
