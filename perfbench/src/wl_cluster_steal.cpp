// cluster_steal — two node processes meshed by dist::cluster. Node 0 (this
// process) submits rounds of items, every one to its own queue, under the
// threshold remote-steal policy with no injected latency; node 1 (a child
// process of the same binary) starts idle and gets work only by stealing
// across the wire. A closed loop: the next round starts when every item of
// the last one has joined. The only workload that drives wire frames,
// remote-call joins and cross-node steals.
//
// Inputs from the seed: fib_n in [18, 22] for every item of every round.
// Each result must equal its handler's deterministic value, fib(n).
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>

#include "closed_loop.hpp"
#include "dist/node_runner.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

const char* g_self_path = "lhws_perfbench";

namespace {

using lhws::dist::cluster;

constexpr unsigned kNodeWorkers = 2;

// What node 1 reports back over its pipe when it exits.
struct node1_report {
  unsigned long long probes = 0;
  unsigned long long empty_grants = 0;
  unsigned long long wire_errors = 0;
  unsigned long long rtt_p50_ns = 0;
  bool ok = false;
};

lhws::dist::cluster_config node_config(std::uint32_t id, std::uint16_t peer) {
  lhws::dist::cluster_config cfg;
  cfg.node_id = id;
  cfg.peers.push_back({id == 0 ? 1u : 0u, peer});
  cfg.policy = lhws::dist::remote_steal_policy::threshold;
  cfg.injected_delta_ns = 0;
  return cfg;
}

struct round_state {
  const std::vector<std::uint32_t>* fib_n = nullptr;  // rounds x items
  std::size_t items = 0;
  std::size_t round = 0;
  std::int64_t deadline_ns = 0;
  std::int64_t mesh_start_ns = 0;
  std::int64_t mesh_up_ns = 0;
  std::vector<double> round_ms;
  std::uint64_t wrong = 0;
  std::uint64_t calls = 0;
  // Traced sessions only.
  span_log* log = nullptr;
  std::vector<double>* call_us = nullptr;
  std::mutex mu;
};

lhws::task<long> submit(cluster& c, round_state& st, std::size_t lo,
                        std::size_t hi, std::size_t base,
                        std::uint64_t round_span) {
  if (hi - lo == 1) {
    const std::uint32_t n = (*st.fib_n)[base + lo];
    bool began = false;
    if (st.log != nullptr) began = co_await lhws::obs::begin_request();
    const std::int64_t t0 = lhws::now_ns();
    const std::uint64_t v = co_await c.call(0, lhws::dist::kWorkFib, n);
    const std::int64_t t1 = lhws::now_ns();
    if (began) co_await lhws::obs::end_request();
    if (st.log != nullptr) {
      st.log->record({"dist.call", t0, t1, st.log->next_id(), round_span,
                      round_span});
      std::lock_guard<std::mutex> g(st.mu);
      st.call_us->push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    co_return v == fib_exact(n) ? 0 : 1;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  auto [a, b] = co_await lhws::fork2(submit(c, st, lo, mid, base, round_span),
                                     submit(c, st, mid, hi, base, round_span));
  co_return a + b;
}

lhws::task<long> drive_then_stop(cluster& c, round_state& st) {
  const std::size_t rounds = st.fib_n->size() / st.items;
  do {
    const std::size_t base = (st.round % rounds) * st.items;
    const std::uint64_t id = st.log != nullptr ? st.log->next_id() : 0;
    const std::int64_t t0 = lhws::now_ns();
    const long bad = co_await submit(c, st, 0, st.items, base, id);
    const std::int64_t t1 = lhws::now_ns();
    if (st.log != nullptr) st.log->record({"dist.round", t0, t1, id, 0, id});
    st.round_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    st.wrong += static_cast<std::uint64_t>(bad);
    st.calls += st.items;
    ++st.round;
  } while (lhws::now_ns() < st.deadline_ns);
  co_await c.stop();
  co_return 0;
}

lhws::task<long> node0_root(cluster& c, round_state& st) {
  st.mesh_start_ns = lhws::now_ns();
  const bool up = co_await c.start();
  st.mesh_up_ns = lhws::now_ns();
  if (!up) co_return -1;
  auto [served, drove] = co_await lhws::fork2(c.serve(), drive_then_stop(c, st));
  co_return drove != 0 ? drove : served;
}

// Awaits stay out of if-conditions: GCC 12 miscompiles a co_await there.
lhws::task<long> node1_root(cluster& c) {
  const bool up = co_await c.start();
  if (!up) co_return -1;
  co_return co_await c.serve();
}

struct session_result {
  double setup_s = 0;
  double mesh_start_ms = 0;
  bool ok = false;
  lhws::dist::cluster_stats node0;
  node1_report node1;
  run_totals totals;
};

node1_report read_report(int fd) {
  std::string text;
  char buf[256];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    text.append(buf, static_cast<std::size_t>(got));
  }
  node1_report rep;
  rep.ok = std::sscanf(text.c_str(), "%llu %llu %llu %llu", &rep.probes,
                       &rep.empty_grants, &rep.wire_errors,
                       &rep.rtt_p50_ns) == 4;
  return rep;
}

// One mesh: node 0 here, node 1 spawned; set-up runs from before the
// reactor is built until start() has the mesh up.
session_result run_session(round_state& st, bool traced) {
  session_result out;
  const std::int64_t t0 = lhws::now_ns();
  lhws::io::reactor r(1);
  cluster c(r, node_config(0, 0));
  if (!c.valid()) return out;
  lhws::dist::install_default_handlers(c);

  int fds[2];
  if (::pipe(fds) != 0) return out;
  const std::string port = std::to_string(c.port());
  const std::string wfd = std::to_string(fds[1]);
  const std::string tr = traced ? "1" : "0";
  const char* argv[] = {g_self_path, "--cluster-node1", port.c_str(),
                        wfd.c_str(), tr.c_str(), nullptr};
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  pid_t pid = -1;
  const int spawned = ::posix_spawn(&pid, g_self_path, &fa, nullptr,
                                    const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (spawned != 0) {
    ::close(fds[0]);
    return out;
  }

  lhws::scheduler_options so;
  so.workers = kNodeWorkers;
  so.metrics = traced;
  so.spans = traced;
  lhws::scheduler sched(so);
  const long rc = sched.run(node0_root(c, st));
  out.node1 = read_report(fds[0]);
  ::close(fds[0]);
  int status = -1;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  out.setup_s = static_cast<double>(st.mesh_up_ns - t0) * 1e-9;
  out.mesh_start_ms = static_cast<double>(st.mesh_up_ns - st.mesh_start_ns) * 1e-6;
  out.node0 = c.stats();
  out.totals.absorb(sched);
  out.ok = rc == 0 && out.node1.ok && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
  return out;
}

struct phase {
  std::vector<double> round_ms;
  std::vector<std::size_t> session_end;  // round_ms index past each session
  std::vector<double> setup_s;
  std::vector<double> mesh_start_ms;
  std::vector<double> call_us;
  std::uint64_t calls = 0;
  std::uint64_t wrong = 0;
  unsigned failed_sessions = 0;
  lhws::dist::cluster_stats node0;
  node1_report node1;
  run_totals totals;
};

void add_stats(lhws::dist::cluster_stats& a,
               const lhws::dist::cluster_stats& b) {
  a.probes += b.probes;
  a.empty_grants += b.empty_grants;
  a.granted_items += b.granted_items;
  a.wire_errors += b.wire_errors;
  a.bytes_tx += b.bytes_tx;
  a.bytes_rx += b.bytes_rx;
}

phase run_phase(const std::vector<std::uint32_t>& fib_n, std::size_t items,
                double seconds, unsigned sessions, bool traced,
                span_log* log) {
  phase p;
  for (unsigned s = 0; s < sessions; ++s) {
    round_state st;
    st.fib_n = &fib_n;
    st.items = items;
    st.log = log;
    st.call_us = &p.call_us;
    st.deadline_ns =
        lhws::now_ns() + static_cast<std::int64_t>(seconds / sessions * 1e9);
    const session_result sr = run_session(st, traced);
    if (!sr.ok) ++p.failed_sessions;
    p.round_ms.insert(p.round_ms.end(), st.round_ms.begin(), st.round_ms.end());
    p.session_end.push_back(p.round_ms.size());
    p.setup_s.push_back(sr.setup_s);
    p.mesh_start_ms.push_back(sr.mesh_start_ms);
    p.calls += st.calls;
    p.wrong += st.wrong;
    add_stats(p.node0, sr.node0);
    p.node1.probes += sr.node1.probes;
    p.node1.empty_grants += sr.node1.empty_grants;
    p.node1.wire_errors += sr.node1.wire_errors;
    p.node1.rtt_p50_ns = sr.node1.rtt_p50_ns;  // last session's
    p.totals.absorb(sr.totals);
  }
  return p;
}

}  // namespace

void run_cluster_steal(const options& o, result& r) {
  const std::size_t items = o.smoke ? 8 : 32;
  std::vector<std::uint32_t> fib_n(items * 1024);
  std::mt19937_64 rng(o.seed * 0x9E3779B97F4A7C15ull + 4);
  std::uniform_int_distribution<std::uint32_t> dist(18, 22);
  for (auto& n : fib_n) n = dist(rng);
  r.add_info("loop", "closed");
  r.add_info("clients", "1");
  r.add_info("nodes", "2");
  r.add_info("workers_per_node", std::to_string(kNodeWorkers));
  r.add_info("items_per_round", std::to_string(items));
  r.add_info("policy", "threshold");
  r.add_info("injected_delta_ns", "0");

  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  const phase plain =
      run_phase(fib_n, items, untraced_s, o.trace ? 2 : 5, false, nullptr);
  auto account = [&r](const phase& p) {
    r.attempted += p.calls;
    r.failed += p.wrong;
    if (p.wrong != 0) {
      r.fail("cluster_steal: " + std::to_string(p.wrong) +
             " results differ from fib(n)");
    }
    if (p.failed_sessions != 0) {
      r.fail("cluster_steal: " + std::to_string(p.failed_sessions) +
             " mesh sessions ended abnormally");
    }
  };
  account(plain);

  if (!o.trace) {
    // Throughput counts items joined, not rounds.
    add_closed_loop_e2e(r, plain.round_ms, plain.session_end, plain.setup_s,
                        static_cast<double>(items));
    r.add_detail("granted_share",
                 static_cast<double>(plain.node0.granted_items) /
                     static_cast<double>(plain.calls),
                 "ratio");
  } else {
    span_log log;
    const phase t = run_phase(fib_n, items, o.seconds / 2, 2, true, &log);
    account(t);
    const double rounds = static_cast<double>(t.round_ms.size());
    const double calls = static_cast<double>(t.calls);
    const series_stat cs = summarize(t.call_us);
    r.add_layer("dist.call_p50_us", cs.p50, "us");
    r.add_layer("dist.call_tail_us", cs.tail.value, "us");
    r.add_layer("dist.granted_share",
                static_cast<double>(t.node0.granted_items) / calls, "ratio");
    const double probes =
        static_cast<double>(t.node0.probes + t.node1.probes);
    r.add_layer("dist.probes", probes / rounds, "count/op");
    r.add_layer("dist.empty_grant_ratio",
                probes > 0 ? static_cast<double>(t.node0.empty_grants +
                                                 t.node1.empty_grants) /
                                 probes
                           : 0.0,
                "ratio");
    r.add_layer("dist.bytes_per_item",
                static_cast<double>(t.node0.bytes_tx + t.node0.bytes_rx) /
                    calls,
                "bytes");
    r.add_layer("dist.rtt_p50_us", static_cast<double>(t.node1.rtt_p50_ns) * 1e-3,
                "us");
    r.add_layer("dist.wire_errors",
                static_cast<double>(t.node0.wire_errors + t.node1.wire_errors),
                "count");
    r.add_layer("dist.mesh_start_ms", median(t.mesh_start_ms), "ms");
    add_runtime_layers(r, t.totals, rounds);
    add_request_layers(r, t.totals.requests);
    add_self_time(r, log);
    r.add_layer("obs.trace_overhead_ratio",
                median(t.round_ms) / median(plain.round_ms), "ratio");
    if (!o.spans_out.empty()) log.write_json(o.spans_out);
  }
}

// Node 1: dial node 0, serve (and steal) until node 0 broadcasts SHUTDOWN,
// then report its counters over the inherited pipe.
int cluster_node1_main(int argc, char** argv) {
  if (argc != 3) return 2;
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[0]));
  const int fd = std::atoi(argv[1]);
  const bool traced = std::atoi(argv[2]) != 0;
  lhws::obs::seed_span_ids(1);
  lhws::io::reactor r(1);
  cluster c(r, node_config(1, port));
  if (!c.valid()) return 2;
  lhws::dist::install_default_handlers(c);
  lhws::scheduler_options so;
  so.workers = kNodeWorkers;
  so.spans = traced;
  lhws::scheduler sched(so);
  const long rc = sched.run(node1_root(c));
  const lhws::dist::cluster_stats s = c.stats();
  const lhws::obs::log_histogram rtt = c.peer_rtt_hist(0);
  char line[256];
  const int n = std::snprintf(
      line, sizeof line, "%llu %llu %llu %llu\n",
      static_cast<unsigned long long>(s.probes),
      static_cast<unsigned long long>(s.empty_grants),
      static_cast<unsigned long long>(s.wire_errors),
      static_cast<unsigned long long>(rtt.quantile(0.5)));
  if (n > 0) {
    const ssize_t wrote = ::write(fd, line, static_cast<std::size_t>(n));
    (void)wrote;
  }
  ::close(fd);
  return rc == 0 ? 0 : 1;
}

}  // namespace perfbench
