#!/usr/bin/env python3
"""Compare two bench-smoke JSON artifact directories and print a delta table.

Usage: bench_delta.py BASELINE_DIR CURRENT_DIR

Each directory holds one JSON file per bench binary, in the bench_util.h
WriteJson shape: {"meta": {...}, "entries": [{"label": ..., field: value}]}.
(The pre-metadata plain-array shape is accepted for old baselines.)

Entries are matched by (file, label); for each matched entry the key
throughput/latency fields are compared and reported as a GitHub-flavoured
markdown table.  Regressions beyond the warn threshold get a warning marker —
never a failure: smoke runs are short and noisy, the table is a reviewer
signal, not a gate.  Exit code is always 0.

Model-checker entries are the exception to "noisy": they are deterministic, so
two outcomes are HARD warnings (a prominent section plus ::warning:: GitHub
annotations on stderr):
  * any entry whose `violations` field is nonzero — an invariant broke;
  * a `states` count that shrank vs. the baseline — the verified scope got
    accidentally narrower (fewer interleavings explored ≠ safer).

The zero-alloc audit is deterministic too (an allocation either happens on the
steady-state path or it doesn't, and the invariant is zero on every audited
backend): any entry whose `hot_path_allocs` is nonzero is a HARD warning — the
hot path allocates (docs/PERFORMANCE.md, "Zero-allocation audit").

Tracing is designed to be near-free (docs/OBSERVABILITY.md): any entry whose
`trace_overhead_pct` exceeds 5 is a HARD warning — the traced hot path got
measurably slower than the untraced one, which defeats always-on sampling.

The L1 tail cache must pay for itself (docs/ARCHITECTURE.md, "hierarchical
caching"): live_throughput's per-node-skew pair stamps the L1-on entry with
the paired off-run's whole-rack rate as `l1_off_mrps`.  Both halves of the
pair run in the same job seconds apart, so this is a same-machine A/B, not a
cross-run diff: an on-rate below the off-rate is a HARD warning — the private
tier made the rack slower than not having it.
"""

import json
import os
import sys

# (field, higher_is_better)
FIELDS = [
    ("mrps", True),
    ("hit_rate", True),
    ("p99_latency_us", False),
]
WARN_PCT = 10.0
TRACE_OVERHEAD_HARD_PCT = 5.0


def load_dir(path):
    """Returns {filename: {"meta": dict, "entries": {label: fields}}}."""
    out = {}
    if not os.path.isdir(path):
        return out
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(path, name)) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, list):  # pre-metadata artifact shape
            meta, entries = {}, doc
        else:
            meta, entries = doc.get("meta", {}), doc.get("entries", [])
        # Repeated labels (e.g. one bench sweeping a knob like coalescing
        # on/off without labelling the configs) must stay distinct rows, not
        # collapse onto the last occurrence: suffix repeats positionally so
        # baseline and current match up pairwise.
        by_label = {}
        for e in entries:
            if "label" not in e:
                continue
            label, n = e["label"], 2
            while label in by_label:
                label = f"{e['label']} #{n}"
                n += 1
            by_label[label] = e
        out[name] = {"meta": meta, "entries": by_label}
    return out


def fmt_delta(base, cur, higher_is_better):
    if base is None or cur is None:
        return "n/a", False
    if base == 0:
        return ("=" if cur == 0 else "new"), False
    pct = 100.0 * (cur - base) / abs(base)
    regressed = (-pct if higher_is_better else pct) > WARN_PCT
    return f"{pct:+.1f}%", regressed


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip())
        return 0
    baseline = load_dir(sys.argv[1])
    current = load_dir(sys.argv[2])
    if not baseline:
        print(f"_No baseline artifacts in {sys.argv[1]}; nothing to compare._")
        return 0

    base_sha = next(
        (d["meta"].get("git_sha") for d in baseline.values() if d["meta"]), "unknown"
    )
    cur_sha = next(
        (d["meta"].get("git_sha") for d in current.values() if d["meta"]), "unknown"
    )
    print(f"### Bench smoke delta: `{base_sha}` → `{cur_sha}`")
    print()
    print("| bench | entry | " + " | ".join(f for f, _ in FIELDS) + " |")
    print("|---" * (2 + len(FIELDS)) + "|")

    warnings = 0
    rows = 0
    hard = []  # deterministic model-checker regressions: violations / scope shrink
    for name, cur_doc in sorted(current.items()):
        base_doc = baseline.get(name)
        short = name.removesuffix(".json")
        for label, cur_entry in cur_doc["entries"].items():
            if cur_entry.get("violations", 0) > 0:
                hard.append(
                    f"{short} `{label}`: violations={cur_entry['violations']:g} "
                    "— a model-checked invariant FAILED"
                )
            allocs = cur_entry.get("hot_path_allocs", 0)
            if allocs > 0:
                hard.append(
                    f"{short} `{label}`: hot_path_allocs={allocs:g} "
                    "— the steady-state hot path allocates (invariant: 0)"
                )
            overhead = cur_entry.get("trace_overhead_pct")
            if overhead is not None and overhead > TRACE_OVERHEAD_HARD_PCT:
                hard.append(
                    f"{short} `{label}`: trace_overhead_pct={overhead:.1f} "
                    f"(limit {TRACE_OVERHEAD_HARD_PCT:.0f}) — sampled tracing "
                    "slowed the hot path beyond its budget"
                )
            l1_off = cur_entry.get("l1_off_mrps")
            if l1_off:
                l1_on = cur_entry.get("rack_mrps", cur_entry.get("mrps"))
                if l1_on is not None and l1_on < l1_off:
                    hard.append(
                        f"{short} `{label}`: rack_mrps={l1_on:.2f} < "
                        f"l1_off_mrps={l1_off:.2f} — the L1 tail cache made "
                        "the rack SLOWER than running without it (same-job "
                        "A/B pair, not cross-run noise)"
                    )
        if base_doc is None:
            print(f"| {name} | _(new bench)_ |" + " — |" * len(FIELDS))
            continue
        for label, base_entry in base_doc["entries"].items():
            if base_entry.get("states") and label not in cur_doc["entries"]:
                hard.append(
                    f"{short} `{label}`: model-checker scope disappeared "
                    f"(baseline explored {base_entry['states']:g} states) — "
                    "the verified scope got narrower"
                )
        for label, cur_entry in cur_doc["entries"].items():
            base_entry = base_doc["entries"].get(label)
            if base_entry is None:
                continue
            base_states = base_entry.get("states")
            cur_states = cur_entry.get("states")
            if base_states and cur_states is not None and cur_states < base_states:
                hard.append(
                    f"{short} `{label}`: states explored shrank "
                    f"{base_states:g} → {cur_states:g} — the verified scope "
                    "got narrower"
                )
            cells = []
            row_warn = False
            for field, higher in FIELDS:
                text, regressed = fmt_delta(
                    base_entry.get(field), cur_entry.get(field), higher
                )
                row_warn |= regressed
                cells.append(("⚠️ " if regressed else "") + text)
            warnings += row_warn
            rows += 1
            print(f"| {short} | {label} | " + " | ".join(cells) + " |")

    print()
    if hard:
        print("### 🛑 Hard warnings (deterministic results)")
        print()
        for msg in hard:
            print(f"- 🛑 {msg}")
            # GitHub annotation; stderr so it lands in the job log, not the
            # step summary this script's stdout is redirected into.
            print(f"::warning title=Deterministic regression::{msg}", file=sys.stderr)
        print()
    if warnings:
        print(
            f"_{warnings}/{rows} entries regressed more than {WARN_PCT:.0f}% — "
            "smoke windows are noisy; treat as a pointer, not a verdict._"
        )
    else:
        print(f"_No regressions beyond {WARN_PCT:.0f}% across {rows} entries._")
    return 0


if __name__ == "__main__":
    sys.exit(main())
