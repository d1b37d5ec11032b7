#!/usr/bin/env python3
"""Smoke test of the pcsample profiler: profiles pcsample_busy, whose
PcsampleHotLoop burns four times the CPU of anything else in it, and checks
that the flat profile puts that function first.

  python3 tools/pcsample/smoke_test.py LIBPCSAMPLE BUSY_BINARY SCRATCH_DIR
"""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "pcsample.py"


def main():
    lib, busy, scratch = sys.argv[1:4]
    Path(scratch).mkdir(parents=True, exist_ok=True)
    out = Path(scratch) / "busy"
    for old in Path(scratch).glob("busy.*"):
        old.unlink()
    proc = subprocess.run(
        [sys.executable, str(TOOL), "record", "--lib", lib, "--out", str(out),
         "--top", "5", "--", busy],
        capture_output=True, text=True, check=False)
    print(proc.stdout)
    print(proc.stderr, file=sys.stderr)
    if proc.returncode != 0:
        print("FAIL: pcsample.py record exited", proc.returncode)
        return 1
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("flat ("))
    top = lines[header + 2]
    samples = int(lines[header].split("(")[1].split()[0])
    if samples < 20:
        print(f"FAIL: only {samples} samples")
        return 1
    if "PcsampleHotLoop" not in top:
        print(f"FAIL: top of the flat profile is {top!r}, not PcsampleHotLoop")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
