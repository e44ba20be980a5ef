// fork_compute — one closed-loop root computing fib(n) by fork2 with no
// latency (U = 0) at P = nproc, repeated. The steal path, fork2 and local
// slab recycling of coroutine frames do nearly all the work; the timer
// plane, the reactor and dist do none. This is the paper's U <= 1 case,
// where LHWS degenerates to classic work stealing.
//
// Inputs from the seed: the scheduler's victim-selection seed. n is fixed
// so that every seed measures the same amount of work.
#include <string>

#include "closed_loop.hpp"
#include "core/fork_join.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

lhws::task<std::uint64_t> fib(unsigned n) {
  if (n < 2) co_return n;
  auto [a, b] = co_await lhws::fork2(fib(n - 1), fib(n - 2));
  co_return a + b;
}

lhws::task<bool> checked_fib(unsigned n, span_log* log) {
  const std::int64_t t0 = lhws::now_ns();
  const std::uint64_t v = co_await fib(n);
  if (log != nullptr) {
    const std::uint64_t id = log->next_id();
    log->record({"core.fib_root", t0, lhws::now_ns(), id, 0, id});
  }
  co_return v == fib_exact(n);
}

// A session's operations: enough for a p90 with ten samples beyond it.
constexpr std::size_t kOpsPerSession = 100;
// Extra set-up samples after each session: a spin-up is sub-millisecond.
constexpr unsigned kSpinups = 6;

}  // namespace

void run_fork_compute(const options& o, result& r) {
  const unsigned P = host_nproc();
  const unsigned n = o.smoke ? 20 : 30;
  lhws::scheduler_options so;
  so.workers = P;
  so.seed = o.seed * 0x9E3779B97F4A7C15ull + 1;
  r.add_info("loop", "closed");
  r.add_info("clients", "1");
  r.add_info("workers", std::to_string(P));
  r.add_info("fib_n", std::to_string(n));
  auto op = [n] { return checked_fib(n, nullptr); };

  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  const closed_loop_phase plain =
      run_closed_loop(so, untraced_s, kOpsPerSession, kSpinups, op);
  r.attempted += plain.op_ms.size();
  r.failed += plain.wrong;

  if (!o.trace) {
    add_closed_loop_e2e(r, plain.op_ms, plain.session_end, plain.setup_s);
  } else {
    span_log log;
    lhws::scheduler_options traced = so;
    traced.metrics = true;
    traced.spans = true;
    const closed_loop_phase t =
        run_closed_loop(traced, o.seconds / 2, kOpsPerSession, 0,
                        [n, &log] { return checked_fib(n, &log); });
    r.attempted += t.op_ms.size();
    r.failed += t.wrong;

    // Wall-clock costs come from the untraced half: tracing slows them.
    double busy_ms = 0;
    for (const double v : plain.op_ms) busy_ms += v;
    const double forks = static_cast<double>(plain.op_ms.size()) *
                         static_cast<double>(fib_exact(n + 1) - 1);
    r.add_layer("core.fork2_ns", busy_ms * 1e6 * P / forks, "ns");
    std::vector<double> spin;
    for (int i = 0; i < 10; ++i) {
      const std::int64_t t0 = lhws::now_ns();
      (void)scheduler_spinup_s(so);
      spin.push_back(static_cast<double>(lhws::now_ns() - t0) * 1e-3);
    }
    r.add_layer("core.run_spinup_us", median(spin), "us");
    const double roots = static_cast<double>(t.op_ms.size());
    add_runtime_layers(r, t.totals, roots);
    add_request_layers(r, t.totals.requests);
    add_self_time(r, log);
    r.add_layer("obs.trace_overhead_ratio",
                median(t.op_ms) / median(plain.op_ms), "ratio");
    if (!o.spans_out.empty()) log.write_json(o.spans_out);
  }
  if (r.failed != 0) {
    r.fail("fork_compute: " + std::to_string(r.failed) +
           " results differ from fib(" + std::to_string(n) + ")");
  }
}

}  // namespace perfbench
