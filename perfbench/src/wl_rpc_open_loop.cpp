// rpc_open_loop — an in-process load::rpc_server on loopback, driven by an
// open-loop Poisson generator at three fixed offered rates (low, mid,
// high) and then a capacity ladder. A fixed share of the requests are
// chained (rpc_depth = 1: the server calls itself once). Each request is
// timed from its scheduled send, so a stall is charged to every request it
// delays. Reactor shards, socket operations, accept/connect and server-side
// suspension do the work; the event hub does none.
//
// The generator is one process-side client: one scheduler, one reactor
// shard, at most nproc connections and at most nproc threads. Each
// connection carries one request at a time, so a request whose connection
// is still busy at its scheduled time waits (that wait is backlog); a
// request sent late although its connection was idle measures how late the
// generator itself runs.
//
// Inputs from the seed: per-connection arrival times, fib_n in [8, 12] per
// request, and which requests are chained (kChainedShare). The response
// must be fib(n), or 2 fib(n) when chained.
//
// The server opens a fresh loopback connection for every chained request,
// and each one leaves a TIME_WAIT socket behind for a minute. At a 10%
// share one run exhausted the ephemeral port range and the runs after it
// collapsed, so the share is kept at 1%.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <random>
#include <string>
#include <thread>

#include "core/algorithms.hpp"
#include "io/async_ops.hpp"
#include "load/rpc_server.hpp"
#include "obs/span.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using lhws::load::get_le64;
using lhws::load::put_le32;

constexpr double kChainedShare = 0.01;

struct phase_def {
  std::string name;
  double rate = 0;        // offered requests per second, all connections
  double start_s = 0;     // offset from the schedule origin
  double duration_s = 0;
  bool ladder = false;
};

struct request {
  std::int64_t offset_ns = 0;  // scheduled send, from the origin
  std::uint32_t fib_n = 0;
  bool chained = false;
  std::uint16_t phase = 0;
  // Filled by the generator.
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  bool conn_idle = false;  // previous response was in before the due time
  bool skipped = false;    // ladder abandoned: never sent, not attempted
  bool ok = false;         // response arrived and was right
  bool wrong = false;      // response arrived and was wrong
};

struct connection_plan {
  std::vector<request> reqs;
};

// Poisson arrivals per connection and phase, from the seed only.
std::vector<connection_plan> make_plan(const std::vector<phase_def>& phases,
                                       unsigned conns, std::uint64_t seed) {
  std::vector<connection_plan> plan(conns);
  for (unsigned c = 0; c < conns; ++c) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1000 + c);
    std::uniform_int_distribution<std::uint32_t> fib_n(8, 12);
    std::bernoulli_distribution chained(kChainedShare);
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const phase_def& ph = phases[p];
      std::exponential_distribution<double> gap(ph.rate / conns);
      double t = ph.start_s;
      for (;;) {
        t += gap(rng);
        if (t >= ph.start_s + ph.duration_s) break;
        request rq;
        rq.offset_ns = static_cast<std::int64_t>(t * 1e9);
        rq.fib_n = fib_n(rng);
        rq.chained = chained(rng);
        rq.phase = static_cast<std::uint16_t>(p);
        plan[c].reqs.push_back(rq);
      }
    }
  }
  return plan;
}

struct client_trace {
  span_log log;
  std::vector<double> write_us;
  std::vector<double> read_us;
  std::mutex mu;
};

constexpr std::int64_t kAbandonLagNs = 250'000'000;

struct session {
  lhws::io::reactor& cr;
  std::uint16_t port;
  const std::vector<phase_def>* phases;
  std::vector<connection_plan>* plan;
  client_trace* trace = nullptr;
  std::vector<lhws::io::socket> socks{};
  std::int64_t origin_ns = 0;
  std::int64_t connected_ns = 0;
  std::uint64_t dial_failures = 0;
  std::atomic<bool> ladder_abandoned{false};
};

lhws::task<long> dial(session& s, std::size_t c) {
  using namespace std::chrono_literals;
  s.socks[c] = lhws::io::socket::create_tcp(s.cr);
  if (!s.socks[c].valid()) co_return 1;
  lhws::io::set_tcp_nodelay(s.socks[c].fd());
  const long rc = co_await lhws::io::async_connect(
      s.cr, s.socks[c], s.port, lhws::io::with_deadline(5s));
  co_return rc == 0 ? 0 : 1;
}

// One request on an open connection; false on any error (the connection
// is then re-dialled before its next request).
lhws::task<bool> exchange(session& s, std::size_t c, request& rq) {
  using namespace std::chrono_literals;
  const auto dl = lhws::io::with_deadline(2s);
  unsigned char req[8];
  unsigned char resp[8];
  put_le32(req, rq.fib_n);
  put_le32(req + 4, rq.chained ? 1 : 0);
  const std::int64_t t0 = lhws::now_ns();
  const long w = co_await lhws::load::write_exact(s.cr, s.socks[c], req, 8, dl);
  const std::int64_t t1 = lhws::now_ns();
  if (w != 8) co_return false;
  const long got =
      co_await lhws::load::read_exact(s.cr, s.socks[c], resp, 8, dl);
  const std::int64_t t2 = lhws::now_ns();
  if (s.trace != nullptr) {
    std::lock_guard<std::mutex> g(s.trace->mu);
    s.trace->write_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    s.trace->read_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
  }
  if (got != 8) co_return false;
  const std::uint64_t expect =
      fib_exact(rq.fib_n) * (rq.chained ? 2u : 1u);
  rq.ok = get_le64(resp) == expect;
  rq.wrong = !rq.ok;
  // Spans cover the fixed rates only: the ladder overloads on purpose, and
  // its queueing would swamp the per-layer self time.
  if (s.trace != nullptr && !(*s.phases)[rq.phase].ladder) {
    span_log& log = s.trace->log;
    const std::uint64_t root = log.next_id();
    log.record({"load.request", rq.due_ns, t2, root, 0, root});
    log.record({"io.write", t0, t1, log.next_id(), root, root});
    log.record({"io.read", t1, t2, log.next_id(), root, root});
  }
  co_return true;
}

lhws::task<long> drive(session& s, std::size_t c) {
  std::int64_t prev_done = 0;
  for (request& rq : (*s.plan)[c].reqs) {
    const std::int64_t due = s.origin_ns + rq.offset_ns;
    rq.due_ns = due;
    if (lhws::now_ns() < due) co_await lhws::io::sleep_until(s.cr, due);
    // Past capacity the backlog only grows; once a ladder step has fallen
    // this far behind, the rest of the ladder is not sent.
    if ((*s.phases)[rq.phase].ladder &&
        (s.ladder_abandoned.load(std::memory_order_relaxed) ||
         lhws::now_ns() - due > kAbandonLagNs)) {
      s.ladder_abandoned.store(true, std::memory_order_relaxed);
      rq.skipped = true;
      continue;
    }
    if (!s.socks[c].valid()) {
      const long bad = co_await dial(s, c);
      if (bad != 0) {
        s.socks[c].close();
        rq.done_ns = lhws::now_ns();
        continue;
      }
    }
    rq.conn_idle = prev_done <= due;
    bool began = false;
    if (s.trace != nullptr) began = co_await lhws::obs::begin_request();
    rq.sent_ns = lhws::now_ns();
    const bool ok = co_await exchange(s, c, rq);
    rq.done_ns = lhws::now_ns();
    if (began) co_await lhws::obs::end_request();
    prev_done = rq.done_ns;
    if (!ok) s.socks[c].close();
  }
  co_return 0;
}

lhws::task<long> client_root(session& s) {
  const std::size_t conns = s.socks.size();
  auto sum = [](long a, long b) { return a + b; };
  s.dial_failures = static_cast<std::uint64_t>(co_await lhws::map_reduce<long>(
      0, conns, 0, [&s](std::size_t c) { return dial(s, c); }, sum));
  s.connected_ns = lhws::now_ns();
  s.origin_ns = s.connected_ns + 2'000'000;
  if (!s.plan->empty() && !(*s.plan)[0].reqs.empty()) {
    co_await lhws::map_reduce<long>(
        0, conns, 0, [&s](std::size_t c) { return drive(s, c); }, sum);
  }
  co_return 0;
}

struct session_result {
  double setup_s = 0;
  run_totals server;
  run_totals client;
  std::uint64_t served = 0;
  std::uint64_t fd_peak = 0;
  std::uint64_t epoll_wakeups = 0;
  std::uint64_t io_completions = 0;
  std::uint64_t timeouts_fired = 0;
  double delta_read_p50_us = 0;
  std::uint64_t dial_failures = 0;
};

struct gen_shape {
  unsigned conns = 4;
  unsigned server_workers = 2;
  unsigned client_workers = 2;
  unsigned client_shards = 1;
};

// Server on a helper thread, generator on the calling thread; the Done
// token drains the server after the generator's last request.
session_result run_session(const gen_shape& g,
                           const std::vector<phase_def>& phases,
                           std::vector<connection_plan>& plan, bool traced,
                           client_trace* trace) {
  session_result out;
  const std::int64_t t0 = lhws::now_ns();
  lhws::load::rpc_server srv(g.server_workers);
  if (!srv.valid()) {
    out.dial_failures = g.conns;
    return out;
  }
  lhws::scheduler_options sopts;
  sopts.workers = g.server_workers;
  sopts.reactor_shards = g.server_workers;
  sopts.metrics = traced;
  sopts.spans = traced;
  lhws::scheduler ssched(sopts);
  std::thread server([&] { (void)ssched.run(srv.root()); });

  {
    lhws::io::reactor cr(g.client_shards);
    lhws::scheduler_options copts;
    copts.workers = g.client_workers;
    copts.reactor_shards = g.client_shards;
    copts.spans = traced;
    copts.metrics = traced;
    lhws::scheduler csched(copts);
    session s{cr, srv.port(), &phases, &plan, trace};
    s.socks.resize(g.conns);
    (void)csched.run(client_root(s));
    out.setup_s = static_cast<double>(s.connected_ns - t0) * 1e-9;
    out.dial_failures = s.dial_failures;
    for (auto& sk : s.socks) sk.close();
    out.client.absorb(csched);
  }
  lhws::load::send_done(srv.port());
  server.join();
  out.server.absorb(ssched);
  lhws::io::reactor& sr = srv.reactor();
  out.served = srv.served();
  out.fd_peak = sr.peak_registered_fds();
  out.epoll_wakeups = sr.epoll_wakeups();
  out.timeouts_fired = sr.timeouts_fired();
  for (const auto k : {lhws::io::op_kind::accept, lhws::io::op_kind::connect,
                       lhws::io::op_kind::read, lhws::io::op_kind::write,
                       lhws::io::op_kind::sleep}) {
    out.io_completions += sr.delta_hist(k).count();
  }
  out.delta_read_p50_us =
      static_cast<double>(sr.delta_hist(lhws::io::op_kind::read).quantile(0.5)) *
      1e-3;
  return out;
}

// Verdict of one phase.
struct phase_stat {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t skipped = 0;
  std::uint64_t completed = 0;
  std::uint64_t chained_completed = 0;
  series_stat lat_us;   // medians over windows of kWindow requests
  series_stat lat_1k;   // the same over windows of 1000 requests (p99)
  tail_stat pooled_tail;  // the tail of all the phase's requests at once
  double gen_lag_p99_us = 0;
  bool backlog = false;
  bool valid = false;  // generator on time, no growing backlog, no failure
  bool meets_slo = false;
  double achieved_rps = 0;
};

// Service-level objective on the tail latency, and how late (p99) the
// generator may send on an idle connection before a step is void.
constexpr double kSloTailUs = 2000;
constexpr double kGenLagLimitUs = 500;
// Latency percentiles are taken per window of kWindow requests and the
// medians over windows reported; a window's tail is its p90. The p99 of
// 1000-request windows and the tail of a whole phase are kept as detail:
// on a shared host both move by several times from run to run.
constexpr std::size_t kWindow = 100;

std::vector<phase_stat> evaluate(const std::vector<phase_def>& phases,
                                 const std::vector<connection_plan>& plan) {
  std::vector<phase_stat> st(phases.size());
  std::vector<std::vector<const request*>> by_phase(phases.size());
  for (const auto& cp : plan) {
    for (const auto& rq : cp.reqs) by_phase[rq.phase].push_back(&rq);
  }
  for (std::size_t p = 0; p < phases.size(); ++p) {
    auto& rs = by_phase[p];
    std::sort(rs.begin(), rs.end(), [](const request* a, const request* b) {
      return a->offset_ns < b->offset_ns;
    });
    phase_stat& s = st[p];
    std::vector<double> lat;
    std::vector<double> lag;
    for (const request* rq : rs) {
      if (rq->skipped) {
        ++s.skipped;
        continue;
      }
      ++s.attempted;
      if (!rq->ok) {
        ++s.failed;
        if (rq->wrong) ++s.wrong;
        continue;
      }
      ++s.completed;
      if (rq->chained) ++s.chained_completed;
      lat.push_back(static_cast<double>(rq->done_ns - rq->due_ns) * 1e-3);
      if (rq->conn_idle) {
        lag.push_back(static_cast<double>(rq->sent_ns - rq->due_ns) * 1e-3);
      }
    }
    s.lat_us = summarize_windows(lat, kWindow);
    s.lat_1k = summarize_windows(lat, 1000);
    s.pooled_tail = tail_of(lat);
    std::sort(lag.begin(), lag.end());
    s.gen_lag_p99_us = percentile(lag, 99.0);
    // Backlog grows when the second half's median latency is more than
    // twice the first half's (plus 200 us of slack).
    const std::size_t half = lat.size() / 2;
    if (half > 0) {
      const double first =
          median(std::vector<double>(lat.begin(), lat.begin() + half));
      const double last =
          median(std::vector<double>(lat.begin() + half, lat.end()));
      s.backlog = last > 2 * first + 200;
    }
    s.backlog = s.backlog || s.skipped > 0;
    s.valid = s.failed == 0 && !s.backlog &&
              s.gen_lag_p99_us <= kGenLagLimitUs && s.completed > 0;
    s.meets_slo = s.valid && s.lat_us.tail.value <= kSloTailUs;
    s.achieved_rps =
        static_cast<double>(s.completed) / phases[p].duration_s;
  }
  return st;
}

// Fixed rates, then the ladder; durations are shares of `seconds`.
std::vector<phase_def> make_phases(double seconds) {
  std::vector<phase_def> ph;
  const double gap = 0.003 * seconds;
  double t = 0;
  auto add = [&](std::string name, double rate, double share, bool ladder) {
    ph.push_back({std::move(name), rate, t, share * seconds, ladder});
    t += share * seconds + gap;
  };
  add("low", 2000, 0.08, false);
  add("mid", 8000, 0.12, false);
  add("high", 24000, 0.21, false);
  for (const int k : {16, 24, 32, 40, 44, 48, 52, 56, 60, 64, 72, 80}) {
    add("ladder_" + std::to_string(k) + "k", k * 1000.0, 0.04, true);
  }
  return ph;
}

struct open_loop_run {
  std::vector<phase_def> phases;
  std::vector<phase_stat> stats;
  session_result sess;
  client_trace trace;
  double capacity_rps = 0;
};

void run_open_loop(const gen_shape& g, double seconds, std::uint64_t seed,
                   bool traced, open_loop_run& out) {
  out.phases = make_phases(seconds);
  std::vector<connection_plan> plan = make_plan(out.phases, g.conns, seed);
  out.sess = run_session(g, out.phases, plan, traced,
                         traced ? &out.trace : nullptr);
  out.stats = evaluate(out.phases, plan);
  // Capacity: the highest ladder rate that met the SLO with no failure and
  // no growing backlog. When the next step up failed on its tail, the
  // crossing is interpolated on log(tail) between the two, so the figure
  // does not jump a whole ladder step.
  std::size_t best = out.stats.size();
  for (std::size_t p = 0; p < out.stats.size(); ++p) {
    if (out.phases[p].ladder && out.stats[p].meets_slo) best = p;
  }
  if (best == out.stats.size()) return;
  out.capacity_rps = out.phases[best].rate;
  const std::size_t next = best + 1;
  if (next < out.stats.size()) {
    const double t_pass = out.stats[best].lat_us.tail.value;
    const double t_fail = out.stats[next].lat_us.tail.value;
    if (t_pass > 0 && t_fail > kSloTailUs) {
      const double f = std::log(kSloTailUs / t_pass) / std::log(t_fail / t_pass);
      out.capacity_rps += f * (out.phases[next].rate - out.phases[best].rate);
    }
  }
}

}  // namespace

void run_rpc_open_loop(const options& o, result& r) {
  const unsigned nproc = host_nproc();
  gen_shape g;
  g.conns = std::min(4u, nproc);
  g.client_workers = nproc >= 4 ? 2 : 1;
  // Generator threads: its workers, its reactor shard threads and the
  // scheduler's timer thread.
  const unsigned gen_threads = g.client_workers + g.client_shards + 1;
  r.add_info("loop", "open");
  r.add_info("connections", std::to_string(g.conns));
  r.add_info("generator_threads", std::to_string(gen_threads));
  r.add_info("server_workers", std::to_string(g.server_workers));
  r.add_info("rates_rps", "low=2000 mid=8000 high=24000 ladder=16000..80000 (12 steps)");
  r.add_info("chained_share", std::to_string(kChainedShare));
  r.add_info("slo_tail_us", std::to_string(static_cast<int>(kSloTailUs)));
  if (gen_threads > nproc || g.conns > nproc) {
    r.fail("rpc_open_loop: generator needs " + std::to_string(gen_threads) +
           " threads and " + std::to_string(g.conns) +
           " connections, more than nproc=" + std::to_string(nproc));
    return;
  }

  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  // Set-up-only sessions (server, schedulers, dial, tear down) add set-up
  // samples; each costs about one accept-poll period to drain.
  std::vector<double> setup;
  const int setup_only = o.trace ? 0 : 2;
  for (int i = 0; i < setup_only; ++i) {
    std::vector<phase_def> none;
    std::vector<connection_plan> empty(g.conns);
    setup.push_back(run_session(g, none, empty, false, nullptr).setup_s);
  }
  // The whole schedule runs in several sessions (fresh server, generator
  // and threads each time), and each figure is the median over sessions:
  // run-to-run differences mostly come with a session's thread placement.
  const unsigned sessions = o.trace || o.smoke ? 1 : 3;
  std::vector<open_loop_run> plain(sessions);
  for (unsigned k = 0; k < sessions; ++k) {
    run_open_loop(g, untraced_s * 0.96 / sessions, o.seed * 7 + k, false,
                  plain[k]);
    setup.push_back(plain[k].sess.setup_s);
  }

  auto account = [&r](const open_loop_run& run) {
    for (const phase_stat& s : run.stats) {
      r.attempted += s.attempted;
      r.failed += s.failed;
      if (s.wrong != 0) {
        r.fail("rpc_open_loop: " + std::to_string(s.wrong) +
               " responses differ from fib(n) (+ downstream)");
      }
    }
    if (run.sess.dial_failures != 0) {
      r.fail("rpc_open_loop: " + std::to_string(run.sess.dial_failures) +
             " connections failed to dial");
    }
  };
  for (const open_loop_run& run : plain) account(run);
  // Median over sessions of one per-session figure.
  auto over = [&plain](auto figure) {
    std::vector<double> v;
    for (const open_loop_run& run : plain) v.push_back(figure(run));
    return median(v);
  };

  // The gated latency is the `high` rate's: at 8k rps the workers park
  // between requests and the wake-up path put the windowed tail's run-to-
  // run spread at 0.16-0.23 over ten seeds, against about 0.12 at 24k.
  const std::size_t gated = 2;
  if (!o.trace) {
    r.add_e2e("setup_s", median(setup), "s");
    r.add_e2e("p50_ms", over([](const open_loop_run& x) {
                return x.stats[gated].lat_us.p50 * 1e-3;
              }), "ms");
    r.add_e2e("tail_ms", over([](const open_loop_run& x) {
                return x.stats[gated].lat_us.tail.value * 1e-3;
              }), "ms");
    const double capacity =
        over([](const open_loop_run& x) { return x.capacity_rps; });
    r.add_e2e("throughput_per_s", capacity, "1/s");
    r.add_detail("peak_rss_mb", peak_rss_mb(), "MB");
    for (std::size_t p = 0; p < plain[0].stats.size(); ++p) {
      const std::string& n = plain[0].phases[p].name;
      auto fig = [&over, p](auto f) {
        return over([p, &f](const open_loop_run& x) { return f(x.stats[p]); });
      };
      if (p < 3) {
        r.add_detail("rpc_p50_us." + n,
                     fig([](const phase_stat& s) { return s.lat_us.p50; }), "us");
        r.add_detail("rpc_tail_us." + n, fig([](const phase_stat& s) {
                       return s.lat_us.tail.value;
                     }), "us");
        r.add_detail("rpc_tail_pct." + n, plain[0].stats[p].lat_us.tail.pct,
                     "percentile");
        r.add_detail("rpc_p99_us." + n, fig([](const phase_stat& s) {
                       return s.lat_1k.tail.value;
                     }), "us");
        r.add_detail("rpc_pooled_tail_us." + n, fig([](const phase_stat& s) {
                       return s.pooled_tail.value;
                     }), "us");
        r.add_detail("rpc_pooled_tail_pct." + n,
                     plain[0].stats[p].pooled_tail.pct, "percentile");
        r.add_detail("rpc_samples." + n, fig([](const phase_stat& s) {
                       return static_cast<double>(s.completed);
                     }), "count");
      }
      r.add_detail("step_valid." + n, fig([](const phase_stat& s) {
                     return s.valid ? 1.0 : 0.0;
                   }), "bool");
      r.add_detail("step_meets_slo." + n, fig([](const phase_stat& s) {
                     return s.meets_slo ? 1.0 : 0.0;
                   }), "bool");
      r.add_detail("step_achieved_rps." + n,
                   fig([](const phase_stat& s) { return s.achieved_rps; }),
                   "1/s");
      r.add_detail("step_tail_us." + n,
                   fig([](const phase_stat& s) { return s.lat_us.tail.value; }),
                   "us");
      r.add_detail("step_gen_lag_p99_us." + n,
                   fig([](const phase_stat& s) { return s.gen_lag_p99_us; }),
                   "us");
    }
    r.add_detail("capacity_rps", capacity, "1/s");
    r.add_detail("sessions", sessions, "count");
  } else {
    open_loop_run traced;
    run_open_loop(g, o.seconds / 2 * 0.96, o.seed, true, traced);
    account(traced);
    const session_result& ss = traced.sess;
    double completed = 0;
    double chained = 0;
    for (const phase_stat& s : traced.stats) {
      completed += static_cast<double>(s.completed);
      chained += static_cast<double>(s.chained_completed);
    }
    const double per = completed > 0 ? 1.0 / completed : 0.0;
    r.add_layer("io.write_us", mean(traced.trace.write_us), "us");
    r.add_layer("io.read_wait_us", mean(traced.trace.read_us), "us");
    r.add_layer("io.delta_p50_us", ss.delta_read_p50_us, "us");
    r.add_layer("io.epoll_wakeups", static_cast<double>(ss.epoll_wakeups) * per,
                "count/op");
    r.add_layer("io.events_per_wakeup",
                ss.epoll_wakeups > 0
                    ? static_cast<double>(ss.io_completions) /
                          static_cast<double>(ss.epoll_wakeups)
                    : 0.0,
                "count");
    r.add_layer("io.fd_peak", static_cast<double>(ss.fd_peak), "count");
    r.add_layer("io.timeouts_fired",
                static_cast<double>(ss.timeouts_fired) * per, "count/op");
    r.add_layer("load.gen_lag_p99_us", traced.stats[gated].gen_lag_p99_us,
                "us");
    // Chained requests are served twice (upstream and downstream).
    r.add_layer("load.served_minus_completed",
                static_cast<double>(ss.served) - completed - chained, "count");
    add_runtime_layers(r, ss.server, completed);
    // Request decomposition comes from the generator's request records.
    add_request_layers(r, ss.client.requests);
    add_self_time(r, traced.trace.log);
    r.add_layer("obs.trace_overhead_ratio",
                traced.stats[gated].lat_us.p50 /
                    plain[0].stats[gated].lat_us.p50,
                "ratio");
    if (!o.spans_out.empty()) traced.trace.log.write_json(o.spans_out);
  }
}

}  // namespace perfbench
