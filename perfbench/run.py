#!/usr/bin/env python3
"""Native allocator benchmark: builds, runs and reports (see perfbench/README.md).

    python3 perfbench/run.py --workload ring-private --seed 1 --seconds 10 --trace 0

Builds libhoard.so and the two benchmark programs from source into
.bench_build/perfbench, then:

  --trace 0  runs the workload in child processes under
             LD_PRELOAD=libhoard.so, with every HOARD_* variable removed,
             and reports the end-to-end metrics; one more child without
             the preload gives the glibc reference, printed as context.
  --trace 1  runs the workload alternately under the preload and
             in-process untraced, then once in-process traced, and
             reports the per-layer metrics.

Metric names and units come from BENCHMARK.json.  Human-readable lines
go first; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SHIM = BUILD / "hoard" / "src" / "shim" / "libhoard.so"
WORKLOADS = ("ring-private", "handoff-remote", "midsize-spans")

# Seconds each --trace 0 child measures: every end-to-end metric is a
# median over round(seconds / CHILD_SECONDS) children, at least
# MIN_CHILDREN.  The kernel-bound midsize-spans calls vary from one
# second to the next with the host's load, so a long run of many
# children is what steadies the medians.  setup_s is the median over
# these and SETUP_PROBES more launches whose timed phase is 1 ms:
# process launch time is too noisy for a median of a few.
CHILD_SECONDS = 1.0
MIN_CHILDREN = 3
SETUP_PROBES = 50

# Preload and untraced in-process runs per --trace 1 run, alternated.
# The traced run that follows gets a third of the time, but at most
# TRACED_SECONDS: it keeps a span for every call that reached the
# provider, and on midsize-spans that is over 300 000 spans a second.
PAIRED_RUNS = 3
TRACED_SECONDS = 4.0


class BenchError(Exception):
    pass


def build():
    """Configures once, then brings the build up to date."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError("allocator sources not found next to perfbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"build failed: {' '.join(cmd)} (log: {log})")


def child_env(preload):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HOARD_") and k != "LD_PRELOAD"}
    if preload:
        env["LD_PRELOAD"] = str(SHIM)
    return env


def run_child(cmd, env, seconds):
    """Runs one benchmark program; returns (launch_ns, its JSON line)."""
    launch_ns = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=seconds * 4 + 60)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(cmd)} printed nothing")
    return launch_ns, json.loads(lines[-1])


def load_cmd(args, seconds):
    return [str(BUILD / "perfbench_load"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds),
            "--spin-ns", str(args.sabotage_spin_ns)]


def inproc_cmd(args, mode, seconds, extra=()):
    return [str(BUILD / "perfbench_inproc"), "--mode", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--spin-ns",
            str(args.sabotage_spin_ns), *extra]


def env_info():
    _, info = run_child([str(BUILD / "perfbench_inproc"), "--mode", "env"],
                        child_env(False), 10)
    info["nproc"] = os.cpu_count()
    info["shim"] = str(SHIM.relative_to(ROOT))
    return info


def failures(result):
    return result["null_returns"] + result["tag_mismatches"]


def end_to_end(args, seconds):
    """Medians over the preload children, plus the glibc reference."""
    count = max(MIN_CHILDREN, round(seconds / CHILD_SECONDS))
    per_child = seconds / count
    children, probes = [], []
    for i in range(count + SETUP_PROBES):
        length = per_child if i < count else 0.001
        launch_ns, r = run_child(load_cmd(args, length), child_env(True), length)
        r["setup_s"] = (r["start_ns"] - launch_ns) / 1e9
        (children if i < count else probes).append(r)

    def med(key):
        return statistics.median(c[key] for c in children)

    values = {
        "throughput_mops": statistics.median(
            c["pairs"] / c["elapsed_ns"] * 1e3 for c in children),
        "malloc_p50_ns": med("malloc_p50_ns"),
        "malloc_p99_ns": med("malloc_p99_ns"),
        "free_p50_ns": med("free_p50_ns"),
        "free_p99_ns": med("free_p99_ns"),
        "peak_rss_mib": med("vm_hwm_kib") / 1024,
        "setup_s": statistics.median(c["setup_s"] for c in children + probes),
    }
    samples = {
        "children": count,
        "setup_launches": count + SETUP_PROBES,
        "malloc_calls_timed": sum(c["malloc_samples"] for c in children),
        "free_calls_timed": sum(c["free_samples"] for c in children),
        "pairs": sum(c["pairs"] for c in children),
    }
    _, g = run_child(load_cmd(args, per_child), child_env(False), per_child)
    reference = {
        "allocator": "glibc",
        "throughput_mops": g["pairs"] / g["elapsed_ns"] * 1e3,
        "malloc_p50_ns": g["malloc_p50_ns"],
        "malloc_p99_ns": g["malloc_p99_ns"],
        "free_p50_ns": g["free_p50_ns"],
        "free_p99_ns": g["free_p99_ns"],
        "peak_rss_mib": g["vm_hwm_kib"] / 1024,
        "failed": failures(g),
    }
    return values, samples, children + probes, reference


def per_layer(args, seconds):
    """Alternating preload and untraced in-process runs (medians of
    PAIRED_RUNS each, for the shim's cost and the tracing overhead), then
    one traced in-process run for the layer metrics."""
    traced_s = min(seconds / 3, TRACED_SECONDS)
    slice_s = (seconds - traced_s) / (2 * PAIRED_RUNS)
    spans = BUILD / "spans" / f"{args.workload}.trace.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    pre, plain = [], []
    for _ in range(PAIRED_RUNS):
        pre.append(run_child(load_cmd(args, slice_s), child_env(True), slice_s)[1])
        plain.append(run_child(inproc_cmd(args, "untraced", slice_s),
                               child_env(False), slice_s)[1])
    _, traced = run_child(
        inproc_cmd(args, "traced", traced_s,
                   ("--spans", str(spans.relative_to(ROOT)))),
        child_env(False), traced_s)
    pre_ns = statistics.median(r["ns_per_pair"] for r in pre)
    plain_ns = statistics.median(r["ns_per_pair"] for r in plain)

    st, tr = traced["stats"], traced["trace"]
    kop = traced["pairs"] / 1000

    def per_kop(n):
        return n / kop

    probes = st["global_bin_hits"] + st["global_bin_misses"]
    values = {
        "shim.self_ns_per_op": pre_ns - plain_ns,
        "core.allocate_ns_p50": tr["core.allocate"]["ns_p50"],
        "core.allocate_ns_p99": tr["core.allocate"]["ns_p99"],
        "core.deallocate_ns_p50": tr["core.deallocate"]["ns_p50"],
        "core.deallocate_ns_p99": tr["core.deallocate"]["ns_p99"],
        "core.self_ns_per_op": (tr["call_ns"] - tr["os_in_call_ns"]) / traced["pairs"],
        "core.oom_failures": st["oom_failures"],
        "core.bad_frees": st["bad_frees"],
        "core.magazine.refills_per_kop": per_kop(st["batch_refills"]),
        "core.magazine.flushes_per_kop": per_kop(st["batch_flushes"]),
        "core.heap.remote_frees_per_kop": per_kop(st["remote_frees"]),
        "core.heap.remote_drains_per_kop": per_kop(st["remote_drains"]),
        "core.heap.transfers_per_kop": per_kop(st["superblock_transfers"]),
        "core.global.fetches_per_kop": per_kop(st["global_fetches"]),
        "core.global.bin_probes_per_kop": per_kop(probes),
        "core.global.bin_hit_ratio": st["global_bin_hits"] / probes if probes else 0.0,
        "core.global.cache_pops_per_kop": per_kop(st["cache_pops"]),
        "core.huge.allocs_per_kop": per_kop(st["huge_allocs"]),
        "os.map_per_kop": per_kop(tr["os.map"]["count"]),
        "os.unmap_per_kop": per_kop(tr["os.unmap"]["count"]),
        "os.purge_per_kop": per_kop(tr["os.purge"]["count"]),
        "os.map_ns_p50": tr["os.map"]["ns_p50"],
        "os.map_ns_p99": tr["os.map"]["ns_p99"],
        "os.unmap_ns_p50": tr["os.unmap"]["ns_p50"],
        "os.unmap_ns_p99": tr["os.unmap"]["ns_p99"],
        "os.share": tr["os_in_call_ns"] / tr["call_ns"] if tr["call_ns"] else 0.0,
        "os.committed_peak_mib": tr["committed_peak_bytes"] / 2**20,
        "trace.untraced_ns_per_op": plain_ns,
        "trace.traced_ns_per_op": traced["ns_per_pair"],
        "trace.overhead_ratio": traced["ns_per_pair"] / plain_ns,
    }
    samples = {
        "allocate_calls_timed": tr["core.allocate"]["samples"],
        "deallocate_calls_timed": tr["core.deallocate"]["samples"],
        "map_calls_timed": tr["os.map"]["samples"],
        "unmap_calls_timed": tr["os.unmap"]["samples"],
        "spans_written": tr["spans_written"],
        "spans_dropped": tr["spans_dropped"],
        "spans_file": tr["spans_path"],
        "preload_ns_per_op": pre_ns,
    }
    return values, samples, pre + plain + [traced], None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="also write the full result document here")
    parser.add_argument("--sabotage-spin-ns", type=int, default=0,
                        help="busy-wait this long in every malloc (sabotage check)")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        build()
        env = env_info()
        measure = per_layer if args.trace else end_to_end
        values, samples, children, reference = measure(args, args.seconds)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(c["attempted"] for c in children)
    failed = sum(failures(c) for c in children)

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} threads "
          f"{children[0]['threads']} seconds {args.seconds:g} trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    print(f"  {'failed_op_ratio':34s} {failed / attempted:14.4g} "
          f"({failed} of {attempted} operations)")
    print(f"  samples: {json.dumps(samples)}")
    if reference:
        print(f"  reference (context only, never gated): {json.dumps(reference)}")

    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "metrics": metrics, "samples": samples, "reference": reference,
            "attempted": attempted, "failed": failed, "children": children,
        }, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
