// A closed loop of one client: the root issues an operation, waits for it,
// times it, and issues the next. Shared by the two in-process compute
// workloads (fork_compute, suspend_fanout); cluster_steal reports through
// add_closed_loop_e2e as well.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common.hpp"
#include "support/timing.hpp"

namespace perfbench {

struct closed_loop_phase {
  std::vector<double> op_ms;    // wall time of each timed operation
  std::vector<std::size_t> session_end;  // op_ms index past each session
  std::vector<double> setup_s;  // scheduler construction -> root running
  std::uint64_t wrong = 0;
  run_totals totals;
};

namespace detail {

template <typename MakeOp>
lhws::task<int> closed_loop_root(MakeOp& make_op, std::int64_t deadline,
                                 std::size_t max_ops, closed_loop_phase& out,
                                 std::int64_t& entered_ns) {
  entered_ns = lhws::now_ns();
  (void)co_await make_op();  // warm-up: slab magazines, caches, timers
  std::size_t done = 0;
  do {
    const std::int64_t t0 = lhws::now_ns();
    const bool ok = co_await make_op();
    const std::int64_t t1 = lhws::now_ns();
    out.op_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    if (!ok) ++out.wrong;
    ++done;
  } while (lhws::now_ns() < deadline && done < max_ops);
  co_return 0;
}

}  // namespace detail

// Runs sessions of `ops_per_session` operations back to back until
// `seconds` are up, each on a fresh scheduler; the last one may be cut
// short. After each session, `spinups` more set-up samples are taken, so
// the samples spread over the whole run. make_op() returns a task<bool>
// that is true when the operation's result checked out.
template <typename MakeOp>
closed_loop_phase run_closed_loop(const lhws::scheduler_options& so,
                                  double seconds, std::size_t ops_per_session,
                                  unsigned spinups, MakeOp make_op) {
  closed_loop_phase p;
  const std::int64_t end =
      lhws::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    std::int64_t entered = 0;
    const std::int64_t t0 = lhws::now_ns();
    lhws::scheduler sched(so);
    (void)sched.run(detail::closed_loop_root(make_op, end, ops_per_session, p,
                                             entered));
    p.setup_s.push_back(static_cast<double>(entered - t0) * 1e-9);
    p.session_end.push_back(p.op_ms.size());
    p.totals.absorb(sched);
    for (unsigned i = 0; i < spinups; ++i) {
      p.setup_s.push_back(scheduler_spinup_s(so));
    }
  } while (lhws::now_ns() < end);
  return p;
}

// The end-to-end metrics of a closed loop: set-up, p50 and tail of the
// operation time, units of work per second (`work_per_op` units per
// operation); peak RSS as a detail figure. Each figure is taken per session (a
// fresh scheduler and threads) and the median over sessions reported:
// run-to-run differences mostly come with a session's thread placement. A
// session cut too short to have the longest one's tail percentile is left
// out. The makespan_* names are kept as detail figures.
inline void add_closed_loop_e2e(result& r, const std::vector<double>& op_ms,
                                const std::vector<std::size_t>& session_end,
                                std::vector<double> setup_s,
                                double work_per_op = 1.0) {
  std::size_t longest = 0;
  for (std::size_t i = 0, lo = 0; i < session_end.size(); lo = session_end[i++]) {
    longest = std::max(longest, session_end[i] - lo);
  }
  std::vector<double> p50, tail, rate;
  tail_stat shape;
  std::size_t lo = 0;
  for (const std::size_t hi : session_end) {
    const std::size_t from = std::exchange(lo, hi);
    if (tail_percentile(hi - from) < tail_percentile(longest)) continue;
    const std::vector<double> s(op_ms.begin() + static_cast<std::ptrdiff_t>(from),
                                op_ms.begin() + static_cast<std::ptrdiff_t>(hi));
    double total_ms = 0;
    for (const double v : s) total_ms += v;
    const series_stat st = summarize(s);
    p50.push_back(st.p50);
    tail.push_back(st.tail.value);
    rate.push_back(static_cast<double>(s.size()) * work_per_op * 1e3 / total_ms);
    shape = st.tail;
  }
  r.add_e2e("setup_s", median(std::move(setup_s)), "s");
  r.add_e2e("p50_ms", median(p50), "ms");
  r.add_e2e("tail_ms", median(tail), "ms");
  r.add_e2e("throughput_per_s", median(rate), "1/s");
  r.add_detail("peak_rss_mb", peak_rss_mb(), "MB");
  r.add_detail("makespan_p50_ms", median(p50), "ms");
  r.add_detail("makespan_tail_ms", median(tail), "ms");
  r.add_detail("makespan_tail_pct", shape.pct, "percentile");
  r.add_detail("makespan_samples", static_cast<double>(op_ms.size()), "count");
  r.add_detail("sessions", static_cast<double>(p50.size()), "count");
}

}  // namespace perfbench
