#!/bin/sh
# run_tier1.sh — the full pre-merge verification sweep in one command:
#
#   1. tier-1: Release-ish build with warnings as errors
#      (-DGPPM_WERROR=ON) + the complete ctest suite (the same invocation
#      ROADMAP.md names as the merge gate);
#   2. scalar: -DGPPM_SIMD=off build, the simd-labeled parity suites, and
#      a byte-for-byte diff of gppm_parity_fingerprint output against the
#      default build — the cross-build bit-identity gate from
#      docs/PERFORMANCE.md (model artifacts must not depend on the ISA);
#   3. TSan:   -DGPPM_SANITIZE=thread build, then every ThreadSanitizer
#      smoke target (compute pool, serve, obs, net, cluster, governor,
#      mix) —
#      the cluster one covers the membership-churn hammer and the 3-node
#      kill/restart chaos suite, the governor one the online
#      decide/observe/refit loop over the shared compute pool, and the
#      cluster, governor and mix labels their bench.*_smoke entries; the
#      stage fails after all seven ran, naming each failed target;
#   4. ASan:   -DGPPM_SANITIZE=address build, then the chaos_smoke and
#      simd_smoke targets (fault-injection/chaos suites, plus the
#      zero-copy span-aliasing fuzz where ASan can catch a dangling
#      payload view), the obs_smoke and serve_smoke targets (every
#      recorded latency picks a histogram bin from a double), and the
#      linalg, stats, core, net and cluster binaries (QR, Gram, screen and
#      selection loops index raw column pointers, build_table writes rows
#      through raw row pointers; obs::Scopes read net and cluster
#      components while they are destroyed);
#   5. benchmark: benchmark/run.sh --smoke (every workload at a tenth of
#      its run length, correctness checks included), then the benchmark's
#      own ctest suite (loadgen self-tests and one smoke per workload).
#
# Usage: tools/run_tier1.sh [--tier1-only]
#
# Build trees: build/ (tier-1), build-scalar/, build-tsan/, build-asan/,
# build/benchmark/ — all under the repo root, all reused across runs.
# Exits nonzero on the first failing stage.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
tier1_only=false
[ "${1:-}" = "--tier1-only" ] && tier1_only=true

echo "== tier-1: -Werror build + full ctest =="
cmake -B "$repo/build" -S "$repo" -DGPPM_WERROR=ON >/dev/null
cmake --build "$repo/build" -j"$jobs"
(cd "$repo/build" && ctest --output-on-failure -j"$jobs")

if $tier1_only; then
  echo "== tier-1 PASS (scalar + sanitizer stages skipped) =="
  exit 0
fi

echo "== scalar fallback: GPPM_SIMD=off build + parity + fingerprint diff =="
cmake -B "$repo/build-scalar" -S "$repo" -DGPPM_SIMD=off >/dev/null
cmake --build "$repo/build-scalar" -j"$jobs" \
  --target test_simd gppm_parity_fingerprint
cmake --build "$repo/build-scalar" --target simd_smoke
"$repo/build/src/core/gppm_parity_fingerprint" \
  | grep -v '^#' > "$repo/build/parity_fingerprint.txt"
"$repo/build-scalar/src/core/gppm_parity_fingerprint" \
  | grep -v '^#' > "$repo/build-scalar/parity_fingerprint.txt"
if ! diff "$repo/build/parity_fingerprint.txt" \
          "$repo/build-scalar/parity_fingerprint.txt"; then
  echo "FAIL: SIMD and scalar builds produced different artifacts" >&2
  exit 1
fi
echo "-- fingerprints bit-identical across builds"

echo "== TSan: build + concurrency smoke targets =="
cmake -B "$repo/build-tsan" -S "$repo" -DGPPM_SANITIZE=thread \
  -DGPPM_BUILD_BENCHES=ON >/dev/null
cmake --build "$repo/build-tsan" -j"$jobs" \
  --target test_common test_stats test_core test_serve test_obs \
           test_net test_cluster test_governor test_mix \
           bench_cluster_throughput bench_governor bench_mix
tsan_failed=""
for target in parallel_smoke serve_smoke obs_smoke net_smoke cluster_smoke \
              governor_smoke mix_smoke
do
  echo "-- $target"
  cmake --build "$repo/build-tsan" --target "$target" \
    || tsan_failed="$tsan_failed $target"
done
[ -z "$tsan_failed" ] \
  || { echo "FAIL: TSan smoke targets failed:$tsan_failed" >&2; exit 1; }

echo "== ASan: build + smokes + linalg/stats/core/net/cluster suites =="
cmake -B "$repo/build-asan" -S "$repo" -DGPPM_SANITIZE=address >/dev/null
cmake --build "$repo/build-asan" -j"$jobs" \
  --target test_fault test_chaos test_simd test_linalg test_stats test_core \
           test_obs test_serve test_net test_cluster
cmake --build "$repo/build-asan" --target chaos_smoke
cmake --build "$repo/build-asan" --target simd_smoke
cmake --build "$repo/build-asan" --target obs_smoke
cmake --build "$repo/build-asan" --target serve_smoke
for suite in test_linalg test_stats test_core test_net test_cluster; do
  echo "-- $suite"
  "$repo/build-asan/tests/$suite" --gtest_brief=1
done

echo "== benchmark: smoke run + benchmark ctest =="
"$repo/benchmark/run.sh" --smoke
ctest --test-dir "$repo/build/benchmark" --output-on-failure

echo "== run_tier1: ALL STAGES PASS =="
