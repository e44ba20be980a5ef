#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

A smoke-size run of every workload, untraced and traced, must check out
(every correctness check passes, nothing fails) and name every metric that
BENCHMARK.json lists, with its unit; a traced run must give a value above 0
for the per-layer metrics that its workload always moves. compare.py must
refuse results from different hosts.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as perfbench_run  # noqa: E402

bench_json = perfbench_run.benchmark

# Per-layer metrics that a traced run of each workload cannot leave at 0:
# the workload always drives the operation behind them.
NONZERO = {
    "fork_compute": ("core.fork2_ns", "core.run_spinup_us", "core.self_us",
                     "mem.slab_bytes"),
    "suspend_fanout": ("core.latency_overshoot_p50_us", "core.self_us",
                       "runtime.suspensions", "obs.request_delta_us", "obs.span_closure"),
    "rpc_open_loop": ("io.write_us", "io.read_wait_us", "io.epoll_wakeups", "io.fd_peak",
                      "load.self_us", "runtime.suspensions", "obs.span_closure"),
    "cluster_steal": ("dist.call_p50_us", "dist.bytes_per_item", "dist.mesh_start_ms",
                      "dist.self_us", "runtime.suspensions"),
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1.5", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    return proc.returncode, proc.stdout


class BenchmarkJson(unittest.TestCase):
    def test_every_workload_lists_its_layers(self):
        names = {w["name"] for w in bench_json()["workloads"]}
        self.assertEqual(set(perfbench_run.EXERCISED), names)
        self.assertEqual(set(NONZERO), names)
        per_layer = [m["name"] for m in bench_json()["per_layer"]]
        for workload, prefixes in perfbench_run.EXERCISED.items():
            for prefix in prefixes:
                self.assertTrue(any(n.startswith(prefix) for n in per_layer), prefix)
            for name in NONZERO[workload]:
                self.assertTrue(perfbench_run.exercised(workload, name), name)

    def test_end_to_end_has_setup_time(self):
        e2e = {m["name"]: m for m in bench_json()["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        code, out = run(workload, trace)
        self.assertEqual(code, 0, out[-2000:])
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = bench_json()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # At smoke size a capacity-ladder step lasts about 50 ms, too
            # short to be sure any step passes, so capacity may read 0.
            if not trace and (workload, m["name"]) != ("rpc_open_loop",
                                                       "throughput_per_s"):
                self.assertGreater(got["value"], 0, m["name"])
        if trace:
            for name in NONZERO[workload] + ("obs.trace_overhead_ratio",):
                self.assertGreater(result["metrics"][name]["value"], 0, name)
        # Every figure is also printed by name with its unit.
        for m in listed:
            self.assertIn(f"{workload} {m['name']} = ", out)

    def test_fork_compute(self):
        self.check("fork_compute", 0)
        self.check("fork_compute", 1)

    def test_suspend_fanout(self):
        self.check("suspend_fanout", 0)
        self.check("suspend_fanout", 1)

    def test_rpc_open_loop(self):
        self.check("rpc_open_loop", 0)
        self.check("rpc_open_loop", 1)

    def test_cluster_steal(self):
        self.check("cluster_steal", 0)
        self.check("cluster_steal", 1)


class StealRetry(unittest.TestCase):
    """A run repeated for hypervisor steal passes only if every attempt did."""

    def run_attempts(self, *attempts):
        """run_workload over the given attempt records (None: no result)."""
        queue = list(attempts)
        calls = []

        def fake_attempt(_cmd, workload, _timeout):
            calls.append(workload)
            rec = queue.pop(0)
            return None if rec is None else dict(rec, workload=workload, wall_s=0.1)

        saved = perfbench_run.attempt, perfbench_run.build_dir
        with tempfile.TemporaryDirectory(dir=HERE) as out:
            perfbench_run.attempt = fake_attempt
            perfbench_run.build_dir = lambda: out
            try:
                raw = perfbench_run.run_workload("lhws_perfbench", bench_json(),
                                                 "fork_compute", 1, 1.0, 0, False)
            finally:
                perfbench_run.attempt, perfbench_run.build_dir = saved
        return raw, len(calls)

    def attempt_record(self, steal, correct=True, failed=0, p50=1.0):
        e2e = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in bench_json()["end_to_end"]}
        e2e["p50_ms"]["value"] = p50
        return {"correct": correct, "attempted": 10, "failed": failed,
                "host_steal_share": steal, "e2e": e2e}

    def test_keeps_the_checked_attempt_with_less_steal(self):
        raw, calls = self.run_attempts(self.attempt_record(0.2, p50=2.0),
                                       self.attempt_record(0.01, p50=1.0))
        self.assertEqual(calls, 2)
        self.assertTrue(perfbench_run.ok(raw))
        self.assertEqual(raw["metrics"]["p50_ms"]["value"], 1.0)
        self.assertEqual(raw["attempt_steal_shares"], [0.2, 0.01])

    def test_repeat_without_result_fails(self):
        raw, calls = self.run_attempts(self.attempt_record(0.2), None)
        self.assertEqual(calls, 2)
        self.assertFalse(perfbench_run.ok(raw))

    def test_wrong_repeat_fails_even_with_less_steal(self):
        raw, _ = self.run_attempts(self.attempt_record(0.2),
                                   self.attempt_record(0.01, correct=False))
        self.assertFalse(perfbench_run.ok(raw))
        raw, _ = self.run_attempts(self.attempt_record(0.2),
                                   self.attempt_record(0.01, failed=1))
        self.assertFalse(perfbench_run.ok(raw))
        raw, _ = self.run_attempts(self.attempt_record(0.2),
                                   self.attempt_record(0.3, failed=1))
        self.assertFalse(perfbench_run.ok(raw))

    def test_wrong_first_attempt_is_not_repeated(self):
        raw, calls = self.run_attempts(self.attempt_record(0.2, correct=False),
                                       self.attempt_record(0.01))
        self.assertEqual(calls, 1)
        self.assertFalse(perfbench_run.ok(raw))


class Compare(unittest.TestCase):
    def record(self, folder, nproc, p50):
        rec = {"workload": "fork_compute", "trace": 0, "smoke": 0,
               "host": {"nproc": nproc, "cpu_model": "x", "kernel": "k", "compiler": "c",
                        "build_type": "Release", "cxx_flags": "", "sanitizer": "none"},
               "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                           for m in bench_json()["end_to_end"]}}
        rec["metrics"]["p50_ms"]["value"] = p50
        with open(os.path.join(folder, "fork_compute-s1-t0.json"), "w", encoding="utf-8") as f:
            json.dump(rec, f)

    def compare(self, base, new):
        cmd = [sys.executable, os.path.join(HERE, "compare.py"), base, new]
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)

    def test_refuses_host_mismatch(self):
        with tempfile.TemporaryDirectory(dir=HERE) as a, \
                tempfile.TemporaryDirectory(dir=HERE) as b:
            self.record(a, 4, 1.0)
            self.record(b, 8, 1.0)
            proc = self.compare(a, b)
            self.assertEqual(proc.returncode, 3)
            self.assertIn("host_mismatch", proc.stdout)

    def test_flags_regression_beyond_bound(self):
        with tempfile.TemporaryDirectory(dir=HERE) as a, \
                tempfile.TemporaryDirectory(dir=HERE) as b:
            self.record(a, 4, 1.0)
            self.record(b, 4, 1.5)
            proc = self.compare(a, b)
            self.assertEqual(proc.returncode, 1)
            self.assertIn("p50_ms: 1 -> 1.5 ms", proc.stdout)
            self.assertIn("REGRESSION", proc.stdout)


if __name__ == "__main__":
    unittest.main()
