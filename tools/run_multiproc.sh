#!/usr/bin/env bash
# Launch a multi-process live rack and certify it with the consistency
# checkers.  Thin wrapper over examples/multiproc_rack (which forks the
# ranks itself); builds it first if needed.
#
#   tools/run_multiproc.sh                          # 4 ranks over shm
#   tools/run_multiproc.sh --transport=socket       # 4 ranks over UDS
#   tools/run_multiproc.sh --nodes=8 --ops=50000 --consistency=sc \
#       --epochs --drift
#   tools/run_multiproc.sh --trace-dir=/tmp/traces  # per-op distributed traces
#   tools/run_multiproc.sh --l1=256                 # node-private L1 tails
#
# All flags are forwarded to multiproc_rack (including --trace=PATH and
# --trace-sample=N; rank 0 merges the per-rank span files into PATH itself.
# --l1=off|on|N arms a node-private LRU L1 tail cache in every rank, and the
# merged SC/Lin checkers certify the run with the tier serving).
# --trace-dir=DIR is wrapper sugar: it expands to --trace=DIR/rack_trace.json
# and lists the per-rank + merged trace files the run left behind.  Exit
# status is the rack's: 0 = healthy run, checkers clean.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
bin="$build_dir/examples/multiproc_rack"

trace_path=""
args=()
for arg in "$@"; do
  case "$arg" in
    --trace-dir=*)
      dir="${arg#--trace-dir=}"
      mkdir -p "$dir"
      trace_path="$dir/rack_trace.json"
      args+=("--trace=$trace_path")
      ;;
    --trace=*)
      trace_path="${arg#--trace=}"
      args+=("$arg")
      ;;
    *)
      args+=("$arg")
      ;;
  esac
done

if [[ ! -x "$bin" ]]; then
  echo "building multiproc_rack..." >&2
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" --target multiproc_rack -j >/dev/null
fi

rc=0
"$bin" ${args+"${args[@]}"} || rc=$?

if [[ -n "$trace_path" ]]; then
  echo "trace files:" >&2
  ls -l "$trace_path" "$trace_path".rank* >&2 || true
  echo "inspect: python3 $repo_root/tools/trace_report.py $trace_path" >&2
fi

exit "$rc"
