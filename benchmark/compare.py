#!/usr/bin/env python3
"""Diffs two benchmark suite reports (benchmark/run.py --out) metric by metric.

    python3 benchmark/compare.py A.json B.json

For every workload and end-to-end metric, B's median is compared with A's
against the metric's bound in BENCHMARK.json:

  regression   B is worse than A by more than the bound
  better       B is better than A by more than the bound
  unchanged    within the bound either way
  unresolved   the spread (max - min) / median inside either report exceeds
               the bound, so the medians cannot tell -- unless every run of
               B beats every run of A, which reads as "better"

A workload whose B report is incorrect or failed operations is a
regression too.  Per-layer metrics are listed with their relative change
and no verdict.  Exit status: 1 when anything regressed, 2 on bad input.
"""

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(s):
    return (s["max"] - s["min"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(a, b, better, bound):
    """Returns (relative change toward worse, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
    b_beats_all = b["max"] < a["min"] if better == "lower" else b["min"] > a["max"]
    if max(spread(a), spread(b)) > bound:
        return worse, "better" if b_beats_all else "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if worse < -bound:
        return worse, "better"
    return worse, "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        spec = json.loads(SPEC.read_text())
        a, b = (json.loads(Path(p).read_text())["workloads"] for p in sys.argv[1:])
    except (OSError, ValueError, KeyError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2

    regressed = False
    print(f"{'workload':14s} {'metric':28s} {'A':>12s} {'B':>12s} {'worse':>8s}"
          f" {'bound':>6s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            print(f"{name:14s} missing from {'A' if name not in a else 'B'}")
            regressed = True
            continue
        wa, wb = a[name], b[name]
        if not wb["correct"] or wb["failed"] > wa["failed"]:
            print(f"{name:14s} B is incorrect or failed {wb['failed']} ops: REGRESSION")
            regressed = True
        for m in spec["end_to_end"]:
            sa, sb = wa["metrics"].get(m["name"]), wb["metrics"].get(m["name"])
            if sa is None or sb is None:
                print(f"{name:14s} {m['name']:28s} missing: REGRESSION")
                regressed = True
                continue
            worse, v = verdict(sa, sb, m["better"], m["bound"])
            regressed |= v == "REGRESSION"
            print(f"{name:14s} {m['name']:28s} {sa['median']:12.5g} {sb['median']:12.5g}"
                  f" {100 * worse:+7.1f}% {100 * m['bound']:5.0f}%  {v}")
        for m in spec["per_layer"]:
            sa, sb = wa["metrics"].get(m["name"]), wb["metrics"].get(m["name"])
            if sa is None or sb is None:
                continue
            change = (sb["median"] - sa["median"]) / abs(sa["median"]) if sa["median"] else 0.0
            print(f"{name:14s} {m['name']:28s} {sa['median']:12.5g} {sb['median']:12.5g}"
                  f" {100 * change:+7.1f}%")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
