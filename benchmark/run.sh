#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload in a fresh process; the last line of
#       standard output is the result object (this is what BENCHMARK.json
#       names as `command`).
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       every workload, untraced then traced, each in a fresh process.
#
# Builds offline from the sources beside it; exits non-zero if the build,
# a run or a correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
echo "nproc: $(nproc)" >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release"

workload=""
trace=0
rest=()
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    *) rest+=("$1"); shift ;;
  esac
done

run_one() { # workload trace
  local exe="$bin/bench"
  [[ "$2" == 1 ]] && exe="$bin/bench-traced"
  "$exe" --workload "$1" --trace "$2" "${rest[@]}"
}

if [[ -n "$workload" ]]; then
  run_one "$workload" "$trace"
else
  status=0
  for w in retwis30k-tcp hot64-tcp retwis-mesh-mem repair30k-mem; do
    run_one "$w" 0 || status=1
    run_one "$w" 1 || status=1
  done
  exit "$status"
fi
