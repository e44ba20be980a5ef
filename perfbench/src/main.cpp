// lhws_perfbench — runs one benchmark workload and prints one JSON object
// (the raw result: end-to-end or per-layer metrics, named detail figures,
// build fingerprint). perfbench/run.py builds and drives it.
//
//   lhws_perfbench --workload fork_compute --seed 1 --seconds 10 --trace 0
//                  [--smoke] [--spans-out FILE]
//
// Exit status: 0 when every result checked out, 1 on a wrong result,
// 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lhws_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans-out FILE]\n"
               "workloads: fork_compute suspend_fanout rpc_open_loop "
               "cluster_steal\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::g_self_path = argv[0];
  if (argc > 1 && std::strcmp(argv[1], "--cluster-node1") == 0) {
    return perfbench::cluster_node1_main(argc - 2, argv + 2);
  }
  perfbench::options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--spans-out" && has_value) {
      o.spans_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (o.seconds <= 0) return usage();

  perfbench::result r;
  if (o.workload == "fork_compute") {
    perfbench::run_fork_compute(o, r);
  } else if (o.workload == "suspend_fanout") {
    perfbench::run_suspend_fanout(o, r);
  } else if (o.workload == "rpc_open_loop") {
    perfbench::run_rpc_open_loop(o, r);
  } else if (o.workload == "cluster_steal") {
    perfbench::run_cluster_steal(o, r);
  } else {
    return usage();
  }
  if (r.attempted == 0) r.fail("no operation completed");
  std::printf("%s\n", perfbench::to_json(o, r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
