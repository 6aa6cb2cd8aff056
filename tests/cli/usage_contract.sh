#!/bin/sh
# The gppm usage contract, one ctest per mode:
#
#   usage_contract.sh GPPM bad-flags
#       every malformed command line exits 2 before any work: nothing on
#       stdout, and on stderr one "error:" line naming the flag and what it
#       accepts, then the usage text;
#   usage_contract.sh GPPM help
#       --help after any command prints the usage on stdout and exits 0.
#
# Every case runs; the script fails after the last one if any failed.
set -u
gppm="$1"
mode="$2"
tmp="$(mktemp -d)" || exit 1
trap 'rm -rf "$tmp"' EXIT
failed=0

fail() {
  echo "FAIL: gppm $*" >&2
  sed 's/^/  | /' "$tmp/err" | head -n 3 >&2
  failed=1
}

# bad EXPECTED ARGS...: the "error:" line must contain EXPECTED.
bad() {
  expected="$1"
  shift
  "$gppm" "$@" >"$tmp/out" 2>"$tmp/err"
  rc=$?
  if [ "$rc" -ne 2 ] || [ -s "$tmp/out" ] ||
     ! grep -qF "error: $expected" "$tmp/err" ||
     ! grep -q '^usage:' "$tmp/err" ||
     grep -Eq 'fitting|training|building' "$tmp/err"; then
    fail "$@ (exit $rc)"
  fi
}

# help ARGS...: usage on stdout, nothing on stderr, exit 0.
help() {
  "$gppm" "$@" >"$tmp/out" 2>"$tmp/err"
  rc=$?
  if [ "$rc" -ne 0 ] || [ -s "$tmp/err" ] ||
     ! grep -q '^usage:' "$tmp/out"; then
    fail "$@ (exit $rc)"
  fi
}

case "$mode" in
bad-flags)
  count='--requests expects an integer in [1, 100000]'
  bad "$count, got 'abc'" serve-bench gtx460 --requests abc
  bad "$count, got '12abc'" serve-bench gtx460 --requests 12abc
  bad "$count, got no value" serve-bench gtx460 --requests=
  bad "--workers expects an integer in [1, 256], got '-1'" \
    serve-bench gtx460 --workers -1
  bad "--jitter expects a number in [0, 1], got 'nan'" \
    serve-bench gtx460 --jitter nan
  bad "--mixes expects an integer in [1, 100000], got '2x'" \
    mix gtx680 --mixes 2x --degree 2
  bad "--phases expects an integer in [0, 100000], got no value" \
    govern gtx680 --phases
  bad "--seed expects an integer in [0, 18446744073709551615], got 'x'" \
    chaos gtx680 --seed x
  bad "--seed given twice" mix gtx680 --seed 1 --seed=2
  bad "--fit takes no value" mix gtx680 --fit=yes
  bad "unknown flag --bogus" specs --bogus
  bad "unknown flag --bogus" pairs gtx680 --bogus
  bad "unexpected argument 'extra'" benchmarks extra
  bad "--connect expects HOST:PORT with PORT in [1, 65535], got" \
    loadgen --connect localhost:0
  # Counts that size a thread pool or a node set.
  bad "--workers expects an integer in [1, 256], got '257'" \
    serve-bench gtx460 --workers 257
  bad "--clients expects an integer in [1, 256], got '100000'" \
    serve-bench gtx460 --clients 100000
  bad "--connections expects an integer in [1, 256], got '100000'" \
    loadgen --cluster 2 --connections 100000
  bad "--cluster expects an integer in [0, 64], got '100000'" \
    loadgen --cluster 100000
  bad "--cluster expects an integer in [0, 64], got '65'" \
    serve gtx460 --listen 0 --cluster 65
  bad "--workers expects an integer in [1, 256], got '100000'" \
    serve gtx460 --listen 0 --workers 100000
  # Durations and rates whose conversion to clock ticks would overflow.
  bad "--drain-every expects a number in [0, 86400000], got 'inf'" \
    loadgen --cluster 2 --drain-every inf
  bad "--open-loop expects 0 or a number in [0.01, 10000000], got '1e-300'" \
    loadgen --cluster 2 --open-loop 1e-300
  bad "--duration expects a number in [0, 86400], got '1e300'" \
    serve gtx460 --listen 0 --duration 1e300
  bad "--deadline-ms expects a number in [0, 86400000], got '-5'" \
    loadgen --cluster 2 --deadline-ms=-5
  ;;
help)
  help --help
  help fit --help
  help govern gtx680 --help
  help serve --help
  help specs -h
  help serve-bench gtx460 --help
  help loadgen --help
  help chaos gtx680 --seed x --help
  help mix gtx680 --help
  help sweep --help
  ;;
*)
  echo "usage: usage_contract.sh GPPM bad-flags|help" >&2
  exit 2
  ;;
esac
exit "$failed"
