#!/usr/bin/env python3
"""The repository benchmark: live-rack workloads, end-to-end and per-layer.

One run (the form BENCHMARK.json names):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the driver (benchmark/CMakeLists.txt, Release, into build-bench/),
certifies the workload with a history-checked correctness pass, then
measures it for S seconds.  With --trace 0 it reports every end-to-end
metric of BENCHMARK.json, with --trace 1 every per-layer metric.  The last
line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}}}

The whole suite (every workload: 3 untraced runs and 1 traced run, medians
with min/max, every metric printed by name and unit, JSON written to --out):

    python3 benchmark/run.py [--seed N] [--smoke] [--out PATH]

Each measurement runs in its own child process under a watchdog of five
times its expected length; a run that hangs is killed and counts all its
operations as failed.  Exit status is non-zero when any run is incorrect.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-bench"
RUN_DIR = BUILD_DIR / "runs"
DRIVER = BUILD_DIR / "cckvs_benchmark"

# One invocation must finish well inside the 180 s a run is allowed.
INVOCATION_BUDGET_S = 170.0
# Rack set-up takes up to ~0.5 s on the 1M-key workloads; budget double.
SETUP_ESTIMATE_S = 1.0
E2E_WINDOWS = 5
WARMUP_S = 2.0

SUITE_REPS = 3
SMOKE_SECONDS = 1

# The driver runs with glibc malloc backing its heap by transparent huge
# pages, as the paper's store (MICA) runs on huge pages.  On the reference
# machine this halves the run-to-run spread of the 1M-key workloads, whose
# random shard reads otherwise pay a page walk per miss.
DRIVER_ENV = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds the driver; exits 1 (no result) on failure."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release", *gen],
        ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("benchmark: build failed: " + " ".join(cmd))
            sys.exit(1)
    RUN_DIR.mkdir(parents=True, exist_ok=True)


def remove_stale_shm():
    """Unlinks shm objects left by benchmark processes that no longer exist."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return
    for entry in shm.glob("cckvs_bench_*"):
        m = re.match(r"cckvs_bench_(\d+)_", entry.name)
        if m is None:
            continue
        try:
            os.kill(int(m.group(1)), 0)
        except ProcessLookupError:
            entry.unlink(missing_ok=True)
        except PermissionError:
            pass  # a live process of another user


class Children:
    """Runs driver modes one at a time, each in a fresh process."""

    def __init__(self):
        self.seq = 0
        self.deadline = time.monotonic() + INVOCATION_BUDGET_S

    def run(self, mode, workload, seed, seconds, expected_s, extra=()):
        """Returns (result dict or None, peak RSS in MiB, error string)."""
        self.seq += 1
        run_id = f"cckvs_bench_{os.getpid()}_{self.seq}"
        out_path = RUN_DIR / (run_id + ".out")
        cmd = [str(DRIVER), mode, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--run-id", run_id,
               "--trace-dir", str(RUN_DIR), *extra]
        limit = min(5.0 * expected_s, self.deadline - time.monotonic())
        if limit <= 0:
            return None, 0.0, f"{mode}: no time left in the run budget"
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(cmd, stdout=out, env=DRIVER_ENV)
        killed = threading.Event()
        reaped = threading.Lock()

        def kill():
            with reaped:
                if proc.returncode is None:
                    killed.set()
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(limit, kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        with reaped:
            proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        # A killed child leaves its trace file and shm objects behind.
        for leftover in [*RUN_DIR.glob(run_id + ".trace*"), *Path("/dev/shm").glob(run_id + "_*")]:
            leftover.unlink(missing_ok=True)
        lines = out_path.read_text().splitlines()
        out_path.unlink(missing_ok=True)
        peak_mib = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if killed.is_set():
            return None, peak_mib, f"{mode}: watchdog killed the run after {limit:.0f} s"
        result = None
        if lines:
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        if result is None:
            return None, peak_mib, f"{mode}: exit {proc.returncode} with no result"
        if proc.returncode != 0 or not result.get("ok"):
            return result, peak_mib, f"{mode}: {result.get('error', 'exit %d' % proc.returncode)}"
        return result, peak_mib, ""


def run_once(spec, workload, seed, seconds, trace, smoke=False):
    """One run of the benchmark contract; returns the result dict."""
    remove_stale_shm()
    children = Children()
    check_ops = 20_000 if smoke else 200_000
    replay_ops = 100_000 if smoke else 1_000_000
    windows = 1 if smoke else E2E_WINDOWS
    warmup = 0.5 if smoke else WARMUP_S
    attempted = 0
    errors = []

    check, _, err = children.run("check", workload, seed, 1, SETUP_ESTIMATE_S + 2,
                                 ["--check-ops", str(check_ops)])
    if err:
        errors.append(err)
    attempted += int(check.get("completed", 0)) if check else 0

    values = {}
    if trace:
        expected = warmup + seconds + 4 * SETUP_ESTIMATE_S + 2
        layers, _, err = children.run("layers", workload, seed, seconds, expected,
                                      ["--warmup", str(warmup), "--replay-ops", str(replay_ops)])
        if err:
            errors.append(err)
        elif layers:
            values = layers
        attempted += int(layers.get("completed", 0)) if layers else 0
        wanted = spec["per_layer"]
    else:
        expected = warmup + seconds + (windows + 1) * SETUP_ESTIMATE_S + 2
        e2e, peak_mib, err = children.run("e2e", workload, seed, seconds, expected,
                                          ["--warmup", str(warmup), "--windows", str(windows)])
        if err:
            errors.append(err)
        elif e2e:
            values = dict(e2e, peak_rss_mb=peak_mib)
        attempted += int(e2e.get("completed", 0)) if e2e else 0
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if not errors and (not isinstance(v, (int, float)) or not math.isfinite(v)):
            errors.append(f"metric {m['name']} missing or not finite")
        if isinstance(v, (int, float)):
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    for e in errors:
        log(f"benchmark: {workload} seed {seed}: {e}")
    # A run with any failure counts every operation it attempted as failed.
    attempted = max(attempted, 1)
    return {"correct": not errors, "attempted": attempted,
            "failed": attempted if errors else 0, "metrics": metrics}


def summarize(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "samples": len(values)}


def run_suite(spec, seed, smoke, out_path):
    seconds = SMOKE_SECONDS if smoke else spec["run_seconds"]
    reps = 1 if smoke else SUITE_REPS
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), "unknown")
    report = {"meta": {"seed": seed, "smoke": smoke, "reps": reps, "run_seconds": seconds,
                       "cpu": cpu, "cpus": os.cpu_count()},
              "workloads": {}}
    all_correct = True
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run_once(spec, name, seed, seconds, trace=False, smoke=smoke) for _ in range(reps)]
        runs.append(run_once(spec, name, seed, seconds, trace=True, smoke=smoke))
        correct = all(r["correct"] for r in runs)
        all_correct &= correct
        metrics = {}
        for m in spec["end_to_end"] + spec["per_layer"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if vals:
                metrics[m["name"]] = dict(summarize(vals), unit=m["unit"])
        report["workloads"][name] = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        print(f"\n== {name}: {w['why']}")
        print(f"   correct={correct}  attempted={report['workloads'][name]['attempted']}"
              f"  failed={report['workloads'][name]['failed']}")
        for mname, s in metrics.items():
            spread = f"  [{s['min']:.6g} .. {s['max']:.6g}]" if s["samples"] > 1 else ""
            print(f"   {mname:34s} {s['median']:>14.6g} {s['unit']:<9s}"
                  f" n={s['samples']}{spread}")
    if out_path:
        Path(out_path).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {out_path}")
    return 0 if all_correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run one workload (the BENCHMARK.json contract)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="short runs, same code paths")
    ap.add_argument("--out", help="suite mode: write the JSON report here")
    args = ap.parse_args()

    spec = load_spec()
    build()
    if args.workload is None:
        return run_suite(spec, args.seed, args.smoke, args.out)
    seconds = args.seconds or spec["run_seconds"]
    result = run_once(spec, args.workload, args.seed, seconds, args.trace, args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
