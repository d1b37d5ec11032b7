#!/usr/bin/env bash
# Simulator-output diff: a change that must not alter what the simulator does
# leaves every simulator bench's stdout byte-identical.
#
#   tools/sim_diff.sh REV        # e.g. tools/sim_diff.sh origin/main
#
# Builds REV (exported with git archive into a temporary directory) and the
# working tree, each into its own temporary build directory with the same
# build type, runs every bench below with --smoke from both builds and
# compares the outputs.  For each mismatch it prints "DIFF <bench>" and the
# first 40 lines of a unified diff of REV's output against the working tree's;
# it exits 1 if there is a mismatch, 0 if all match.
#
# The list leaves out the benches whose output depends on real threads or the
# wall clock: micro_components, abl_hot_set_learning, fig13a/b/c and
# live_throughput.  abl_drift_recovery is compared up to its live section
# ("Live rack under drift"), and sec52_model_check with its wall-clock "(N.Ns)"
# suffixes stripped.
#
# Environment: JOBS (build parallelism, default nproc), BUILD_TYPE (default
# RelWithDebInfo), KEEP=1 keeps the outputs and build trees for inspection.
set -euo pipefail

rev=${1:?usage: tools/sim_diff.sh REV}
root=$(git rev-parse --show-toplevel)
jobs=${JOBS:-$(nproc)}
build_type=${BUILD_TYPE:-RelWithDebInfo}

benches=(
  fig01_load_imbalance fig02_design_space fig03_hit_rate fig08_read_throughput
  fig09_hit_miss_breakdown fig10_write_ratio fig11_traffic_breakdown
  fig12_object_size fig14_scalability fig15_break_even sec84_bottlenecks
  abl_design_choices abl_drift_recovery sec52_model_check
)

work=$(mktemp -d "${TMPDIR:-/tmp}/sim_diff.XXXXXX")
cleanup() {
  if [[ "${KEEP:-0}" == 1 ]]; then
    echo "outputs kept in $work" >&2
  else
    rm -rf "$work"
  fi
}
trap cleanup EXIT

mkdir "$work/base"
git -C "$root" archive "$rev" | tar -x -C "$work/base"

build() {  # build SRC DIR
  local gen=()
  command -v ninja >/dev/null && gen=(-G Ninja)
  cmake -S "$1" -B "$2" "${gen[@]}" -DCMAKE_BUILD_TYPE="$build_type" \
    -DCCKVS_BUILD_TESTS=OFF -DCCKVS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$2" -j "$jobs" --target "${benches[@]}" >/dev/null
}
echo "building $rev and the working tree ..." >&2
build "$work/base" "$work/base-build"
build "$root" "$work/head-build"

# Stdout of one bench, less the parts that are not the simulator's.
run() {  # run BUILD_DIR BENCH
  local out
  out=$("$1/bench/$2" --smoke)
  case "$2" in
    abl_drift_recovery) sed '/^Live rack under drift/,$d' <<<"$out" ;;
    sec52_model_check) sed -E 's/ *\([0-9.]+s\)$//' <<<"$out" ;;
    *) printf '%s\n' "$out" ;;
  esac
}

status=0
for b in "${benches[@]}"; do
  run "$work/base-build" "$b" >"$work/$b.base"
  run "$work/head-build" "$b" >"$work/$b.head"
  if ! cmp -s "$work/$b.base" "$work/$b.head"; then
    echo "DIFF $b"
    diff -u --label "$b @ $rev" --label "$b @ working tree" "$work/$b.base" \
      "$work/$b.head" >"$work/$b.diff" || true
    head -n 40 "$work/$b.diff"
    lines=$(wc -l <"$work/$b.diff")
    if ((lines > 40)); then
      echo "... $((lines - 40)) more lines (KEEP=1 keeps the outputs)"
    fi
    status=1
  fi
done
[[ $status == 0 ]] && echo "simulator output matches $rev (${#benches[@]} benches)" >&2
exit $status
