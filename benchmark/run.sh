#!/usr/bin/env bash
# The whole benchmark in one command: builds, certifies and measures every
# workload, prints every metric by name and unit, writes JSON with --out, and
# exits non-zero if any correctness check fails.  See run.py.
#
#   benchmark/run.sh [--seed=N] [--smoke] [--out=PATH]
exec python3 "$(dirname "$0")/run.py" "$@"
