#!/usr/bin/env python3
"""Compare two sets of untraced benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result records written by run.py (<build>/results/*.json)
or directories of them; traced and smoke-size records are ignored. For
every workload present on both sides, each end-to-end metric's median is
compared, and a change worse than the metric's bound is a regression.

Results are only comparable from the same host class and build: when the
host fingerprints (nproc, CPU model, kernel, compiler, build type, flags,
sanitizer) differ, the comparison is refused with `host_mismatch`.

Exit status: 0 no regression, 1 regression, 2 nothing to compare,
3 host_mismatch.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

FINGERPRINT_KEYS = ("nproc", "cpu_model", "kernel", "compiler", "build_type",
                    "cxx_flags", "sanitizer")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for f in files:
        if f.endswith(".spans.json"):
            continue
        with open(f, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0 and not rec.get("smoke"):
            records.append(rec)
    return records


def host_mismatch(base, new):
    """The first fingerprint field on which any two records differ."""
    ref = base[0]["host"]
    for rec in base + new:
        for key in FINGERPRINT_KEYS:
            if rec["host"].get(key) != ref.get(key):
                return key, ref.get(key), rec["host"].get(key)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    bench = run.benchmark()
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("nothing to compare: no untraced result records")
        return 2
    mismatch = host_mismatch(base, new)
    if mismatch is not None:
        key, a, b = mismatch
        print(f"host_mismatch: {key} differs ({a!r} vs {b!r}); results from "
              "different hosts or builds are not compared")
        return 3

    regressions = 0
    for workload in (w["name"] for w in bench["workloads"]):
        b_recs = [r for r in base if r["workload"] == workload]
        n_recs = [r for r in new if r["workload"] == workload]
        if not b_recs or not n_recs:
            continue
        for m in bench["end_to_end"]:
            name, unit, better, bound = m["name"], m["unit"], m["better"], m["bound"]
            b_med = statistics.median(r["metrics"][name]["value"] for r in b_recs)
            n_med = statistics.median(r["metrics"][name]["value"] for r in n_recs)
            change = (n_med - b_med) / b_med if b_med else 0.0
            worse = change if better == "lower" else -change
            verdict = "REGRESSION" if worse > bound else "ok"
            regressions += verdict != "ok"
            print(f"{workload} {name}: {b_med:.6g} -> {n_med:.6g} {unit} "
                  f"({change:+.1%}, bound {bound:.0%}, n={len(b_recs)}/{len(n_recs)}) "
                  f"{verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
