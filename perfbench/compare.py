#!/usr/bin/env python3
"""Compares two sets of benchmark results against BENCHMARK.json bounds.

    python3 perfbench/compare.py --base a1.json a2.json --cand b1.json b2.json

Each file is a result document written by `run.py --out`.  For every
workload and end-to-end metric the medians of the two sets are compared;
a candidate median worse than the base median by more than the metric's
bound is flagged.  Results taken with different `hardware_threads` are
refused, since thread-count-dependent numbers do not compare.

Exit status: 0 nothing flagged, 1 a metric regressed, 2 refused.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    docs = [json.loads(Path(p).read_text()) for p in paths]
    for doc, path in zip(docs, paths):
        if doc["trace"] != 0:
            raise ValueError(f"{path}: not an end-to-end (--trace 0) result")
    return docs


def compare(base, cand, spec):
    """Returns (rows, regressions); each row is a printable tuple."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows, regressions = [], []
    for workload in sorted({d["workload"] for d in base}):
        b_docs = [d for d in base if d["workload"] == workload]
        c_docs = [d for d in cand if d["workload"] == workload]
        if not c_docs:
            continue
        for name, m in bounds.items():
            b = statistics.median(d["metrics"][name]["value"] for d in b_docs)
            c = statistics.median(d["metrics"][name]["value"] for d in c_docs)
            worse = (c - b) / b if m["better"] == "lower" else (b - c) / b
            flagged = worse > m["bound"]
            rows.append((workload, name, b, c, worse, m["bound"], flagged))
            if flagged:
                regressions.append((workload, name))
    return rows, regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--cand", nargs="+", required=True)
    args = parser.parse_args()
    base, cand = load(args.base), load(args.cand)
    threads = {d["env"]["hardware_threads"] for d in base + cand}
    if len(threads) != 1:
        print(f"refusing to compare results from different hardware_threads: "
              f"{sorted(threads)}", file=sys.stderr)
        return 2
    rows, regressions = compare(base, cand, json.loads(SPEC.read_text()))
    print(f"{'workload':15s} {'metric':18s} {'base':>12s} {'cand':>12s} "
          f"{'worse':>8s} {'bound':>6s}")
    for workload, name, b, c, worse, bound, flagged in rows:
        print(f"{workload:15s} {name:18s} {b:12.4f} {c:12.4f} {worse:+8.3f} "
              f"{bound:6.2f}{'  REGRESSION' if flagged else ''}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
