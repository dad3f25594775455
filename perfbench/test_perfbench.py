#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- Layer self-check: the traced run must see remote frees only where
  threads really hand objects to each other, and os time only where
  objects cross the huge threshold.
- Sabotage check: a spin injected through the benchmark's malloc
  wrapper must move the end-to-end metrics past their bounds, and
  compare.py must flag it.
- compare.py refuses results from different hardware_threads.
- Outside a full checkout the benchmark fails without a result.
- BENCHMARK.json stays within the limits its readers check.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "perfbench-test"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seconds, name, *extra):
    out = SCRATCH / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", str(seconds), "--trace",
         str(trace), "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed: {proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    assert last["correct"] and last["failed"] == 0, last
    return out, json.loads(out.read_text())


def compare(base, cand):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "compare.py"),
         "--base", *map(str, base), "--cand", *map(str, cand)],
        cwd=ROOT, capture_output=True, text=True)


class LayerSelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        cls.docs = {
            w: run_bench(w, 1, 3, f"layers-{w}")[1]
            for w in ("ring-private", "handoff-remote", "midsize-spans")}
        cls.layers = {w: d["metrics"] for w, d in cls.docs.items()}

    def value(self, workload, name):
        return self.layers[workload][name]["value"]

    def test_every_per_layer_metric_is_reported(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for workload, metrics in self.layers.items():
            self.assertEqual(sorted(metrics), sorted(names), workload)

    def test_remote_frees_come_from_thread_handoff(self):
        self.assertGreater(
            self.value("handoff-remote", "core.heap.remote_frees_per_kop"), 0)
        self.assertLess(
            self.value("ring-private", "core.heap.remote_frees_per_kop"), 0.01)

    def test_os_share_follows_the_huge_threshold(self):
        shares = {w: self.value(w, "os.share") for w in self.layers}
        self.assertEqual(max(shares, key=shares.get), "midsize-spans", shares)
        self.assertLess(shares["ring-private"], 0.001, shares)

    def test_spans_are_written(self):
        for workload, doc in self.docs.items():
            self.assertGreater(doc["samples"]["spans_written"], 0)
            self.assertEqual(doc["samples"]["spans_dropped"], 0, workload)
            spans = json.loads((ROOT / doc["samples"]["spans_file"]).read_text())
            self.assertEqual(len(spans["traceEvents"]),
                             doc["samples"]["spans_written"])
            self.assertGreater(self.value(workload, "trace.overhead_ratio"), 0)


class SabotageCheck(unittest.TestCase):
    def test_injected_spin_is_flagged(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        base, _ = run_bench("ring-private", 0, 2, "sabotage-base")
        slow, _ = run_bench("ring-private", 0, 2, "sabotage-spin",
                            "--sabotage-spin-ns", "2000")
        result = compare([base], [slow])
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        flagged = {line.split()[1] for line in result.stdout.splitlines()
                   if line.endswith("REGRESSION")}
        self.assertIn("throughput_mops", flagged, result.stdout)
        self.assertIn("malloc_p50_ns", flagged, result.stdout)

    def test_different_hardware_threads_are_refused(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        doc = {"workload": "ring-private", "trace": 0, "metrics": {},
               "env": {"hardware_threads": 4}}
        a, b = SCRATCH / "hw4.json", SCRATCH / "hw8.json"
        a.write_text(json.dumps(doc))
        doc["env"]["hardware_threads"] = 8
        b.write_text(json.dumps(doc))
        result = compare([a], [b])
        self.assertEqual(result.returncode, 2, result.stderr)


class Contract(unittest.TestCase):
    def test_fails_without_the_allocator_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ring-private",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)

    def test_benchmark_json_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, name)
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)


if __name__ == "__main__":
    unittest.main()
