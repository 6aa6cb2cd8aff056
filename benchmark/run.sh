#!/usr/bin/env bash
# Build the benchmark and run its workloads, each in its own process.
#
#   benchmark/run.sh [--workload wire-hot|serve-cold|cluster-hot|fit|all]
#                    [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#                    [--out DIR]
#
# Run from anywhere; builds into build/benchmark under the repository root
# (build output goes to stderr).  S defaults to run_seconds in
# BENCHMARK.json, the run length every comparable result uses.  For each
# workload, stdout gets one `workload metric value unit` line per metric
# and then one JSON line {"correct", "attempted", "failed", "metrics"}; DIR
# (default build/benchmark/results) gets <workload>.json with the
# environment stamp, and with --trace 1 <workload>.traced.json and the
# Chrome trace <workload>.chrome-trace.json.  --trace 1 reports the
# per-layer metrics instead of the end-to-end ones.  Exits nonzero if any
# workload fails a correctness check.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$repo/build/benchmark"

workload=all
out="$build/results"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$repo/BENCHMARK.json")"
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seed|--trace) args+=("$1" "$2"); shift 2 ;;
    --smoke) args+=("$1"); shift ;;
    -h|--help) sed -n '2,17p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$repo" -B "$build" \
    -DCMAKE_PROJECT_gppm_INCLUDE="$repo/benchmark/attach.cmake" \
    -DGPPM_BUILD_TESTS=OFF -DGPPM_BUILD_BENCHES=OFF \
    -DGPPM_BUILD_EXAMPLES=OFF >&2
fi
cmake --build "$build" -j"$(nproc)" --target gppm_benchmark loadgen_selftest >&2
mkdir -p "$out"

commit="$(git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$workload" = all ]; then
  workloads=(wire-hot serve-cold cluster-hot fit)
else
  workloads=("$workload")
fi
status=0
for w in "${workloads[@]}"; do
  "$build/gppm_benchmark" --workload "$w" --seconds "$seconds" --out "$out" \
    --commit "$commit" "${args[@]}" || status=$?
done
exit "$status"
