#!/usr/bin/env bash
# The one command of the e2e benchmark. From the root of a checkout:
#
#   bash bench/e2e/run.sh --workload <name|all> --seed N [--seconds S] [--trace 0|1]
#   bash bench/e2e/run.sh --selftest
#
# Builds build-e2e/ in Release (refusing any other build type), writes the
# workload's seeded input with a separate --prepare process, runs the
# workload, and prints its metrics: a table with units and sample counts on
# stderr, the result JSON as the last stdout line. Exits non-zero when the
# build fails, an answer is wrong, or a run is invalid.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: $root is not a checkout of the simdx repository" >&2
  exit 2
fi
cd "$root"

workload=""
seed=1
seconds=10
trace=0
selftest=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    --trace) trace="${2:?}"; shift 2 ;;
    --selftest) selftest=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ $selftest -eq 0 && -z "$workload" ]]; then
  echo "usage: run.sh --workload <name|all> --seed N [--seconds S] [--trace 0|1] | --selftest" >&2
  exit 2
fi

build=build-e2e
if [[ -f "$build/CMakeCache.txt" ]] &&
   ! grep -q '^CMAKE_BUILD_TYPE:STRING=Release$' "$build/CMakeCache.txt"; then
  echo "run.sh: $build is not a Release build; remove it first" >&2
  exit 2
fi
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" >&2

if [[ $selftest -eq 1 ]]; then
  "$build/simdx_e2e_selftest"
  # BENCHMARK.json must list exactly the metrics the binary reports.
  "$build/simdx_e2e" --list-metrics | python3 -c '
import json, sys
bench = json.load(open("BENCHMARK.json"))
listed = {(g, m["name"], m["unit"]) for g in ("end_to_end", "per_layer") for m in bench[g]}
emitted = {tuple(line.split()) for line in sys.stdin if line.strip()}
if listed != emitted:
    sys.exit("BENCHMARK.json and simdx_e2e disagree: %s" % sorted(listed ^ emitted))
print("selftest: BENCHMARK.json lists every emitted metric", file=sys.stderr)
'
  exit 0
fi

if [[ "$workload" == all ]]; then
  workloads=(sssp-social bfs-road pagerank-social serve-mixed serve-hot)
else
  workloads=("$workload")
fi

input=""
trap '[[ -n "$input" ]] && rm -f "$input"' EXIT
status=0
for w in "${workloads[@]}"; do
  input="$build/input-$w-$seed.bin"
  "$build/simdx_e2e" --prepare --workload "$w" --seed "$seed" --input "$input"
  if ! "$build/simdx_e2e" --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" --input "$input" --trace-out "$build/trace-$w.json" \
      --work-dir "$build"; then
    echo "run.sh: $w failed its checks" >&2
    status=1
  fi
  rm -f "$input"
done
exit "$status"
