#!/usr/bin/env python3
"""The benchmark's own test (ctest: benchmark_smoke).

  1. `run.py --smoke` finishes within 30 s and reports every metric named in
     BENCHMARK.json, finite, for every workload.
  2. Two traced runs per workload at one seed repeat cache.sym_hit_rate and
     cache.l1_hit_frac within 0.5%.  These runs measure 3 s windows: the L1
     fills for over a second, so smoke-length windows still see its warm-up.
  3. The watchdog kills a child that outlives five times its expected time
     and cleans up after it; a whole run of epoch_drift -- online epochs
     under drift, whose drain can hang -- ends inside the run budget with a
     consistent result and leaves no shm objects behind.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # keep benchmark/ free of __pycache__
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (the watchdog is exercised in-process)

RUN = [sys.executable, str(BENCH / "run.py")]
REPORT = run.BUILD_DIR / "smoke_test.json"
SEED = 7
SMOKE_BUDGET_S = 30.0
RUN_BUDGET_S = 180.0


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    failures = []

    t0 = time.monotonic()
    suite = subprocess.run([*RUN, "--smoke", "--seed", str(SEED), "--out", str(REPORT)])
    elapsed = time.monotonic() - t0
    print(f"smoke suite: exit {suite.returncode} in {elapsed:.1f} s")
    if suite.returncode != 0:
        failures.append(f"smoke suite exited {suite.returncode}")
    if elapsed > SMOKE_BUDGET_S:
        failures.append(f"smoke suite took {elapsed:.1f} s (budget {SMOKE_BUDGET_S:.0f} s)")
    report = json.loads(REPORT.read_text())["workloads"]
    REPORT.unlink()

    for w in spec["workloads"]:
        name = w["name"]
        metrics = report.get(name, {}).get("metrics", {})
        for m in spec["end_to_end"] + spec["per_layer"]:
            v = metrics.get(m["name"], {}).get("median")
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                failures.append(f"{name}: {m['name']} missing or not finite")

        first, second = (last_json_line(subprocess.run(
            [*RUN, "--workload", name, "--seed", str(SEED), "--seconds", "6", "--trace", "1",
             "--smoke"], capture_output=True, text=True).stdout)["metrics"] for _ in range(2))
        for key in ("cache.sym_hit_rate", "cache.l1_hit_frac"):
            a = first[key]["value"]
            b = second[key]["value"]
            print(f"{name}: {key} {a:.5f} then {b:.5f}")
            if abs(a - b) > 0.005 * max(abs(a), abs(b)):
                failures.append(f"{name}: {key} did not repeat ({a} vs {b})")

    t0 = time.monotonic()
    _, _, err = run.Children().run("e2e", "epoch_drift", SEED, 30, expected_s=0.4)
    elapsed = time.monotonic() - t0
    print(f"watchdog: {err!r} after {elapsed:.1f} s")
    if "watchdog" not in err or elapsed > 10:
        failures.append("the watchdog did not stop a 30 s run given 2 s")

    t0 = time.monotonic()
    drift = subprocess.run([*RUN, "--workload", "epoch_drift", "--seed", str(SEED),
                            "--seconds", "2", "--trace", "0"], capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    result = last_json_line(drift.stdout)
    print(f"epoch_drift: {elapsed:.1f} s, result {json.dumps(result)[:160]}")
    if elapsed > RUN_BUDGET_S:
        failures.append(f"epoch_drift run took {elapsed:.1f} s")
    # Either every op succeeded, or the run failed and counts all of them.
    consistent = result["failed"] == (0 if result["correct"] else result["attempted"])
    if not consistent:
        failures.append("epoch_drift result is inconsistent")
    leftovers = list(Path("/dev/shm").glob("cckvs_bench_*"))
    if leftovers:
        failures.append(f"shm objects left behind: {leftovers}")

    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
