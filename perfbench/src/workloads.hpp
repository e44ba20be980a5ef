// The four workloads. Each one builds its inputs from options::seed,
// measures for options::seconds, checks every result, and fills `result`:
// end-to-end metrics when untraced, per-layer metrics when traced.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_fork_compute(const options& o, result& r);
void run_suspend_fanout(const options& o, result& r);
void run_rpc_open_loop(const options& o, result& r);
void run_cluster_steal(const options& o, result& r);

// Child-process entry for cluster_steal's second node, and the path the
// parent spawns it from (argv[0]).
int cluster_node1_main(int argc, char** argv);
extern const char* g_self_path;

// Exact Fibonacci for result checks.
constexpr std::uint64_t fib_exact(unsigned n) {
  std::uint64_t a = 0, b = 1;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace perfbench
