#!/usr/bin/env bash
# Runs every bench binary and records machine-readable results, one JSON
# file per experiment, so the perf trajectory across PRs is diffable:
#
#   bench/run_all.sh [BUILD_DIR] [OUT_DIR]
#
# defaults: BUILD_DIR=build, OUT_DIR=bench_results. Each bench writes
# OUT_DIR/BENCH_<tag>.json via google-benchmark's --benchmark_out (the
# experiment tables still go to stdout, captured as BENCH_<tag>.txt) plus a
# METRICS_<tag>.json sibling (schema lacon.metrics.v2 — counters, phase
# timers with their duration histograms, guard truncation state; see
# DESIGN.md §11).
#
# Extra arguments for the bench binaries can be passed via BENCH_ARGS.
# Without them every row runs google-benchmark's default budget of 0.5 s,
# which is what ci.sh runs and what bench/baseline/ was recorded at; the
# installed google-benchmark reads a bare number of seconds, e.g.
# BENCH_ARGS=--benchmark_min_time=0.01 for a run of a few iterations.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench_results}"
BENCH_ARGS="${BENCH_ARGS:-}"

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"

status=0
ran=0
failed=()

for bench in "$BUILD_DIR"/bench/bench_*; do
  [[ -x "$bench" ]] || continue
  ran=$((ran + 1))
  name="$(basename "$bench")"
  tag="${name#bench_}"
  echo "=== $name -> $OUT_DIR/BENCH_$tag.json"
  if ! LACON_METRICS_FILE="$OUT_DIR/METRICS_$tag.json" \
      "$bench" \
      --benchmark_out="$OUT_DIR/BENCH_$tag.json" \
      --benchmark_out_format=json \
      ${BENCH_ARGS} \
      | tee "$OUT_DIR/BENCH_$tag.txt"; then
    echo "FAILED: $name" >&2
    status=1
    failed+=("$name")
  fi
done

if [[ "$ran" -eq 0 ]]; then
  echo "error: no bench binaries found under $BUILD_DIR/bench" >&2
  exit 1
fi

# Schema-validate every metrics snapshot the benches emitted: a malformed
# METRICS_ file gates the exit status like a failed bench.
script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
metrics_files=("$OUT_DIR"/METRICS_*.json)
if [[ -e "${metrics_files[0]}" ]]; then
  echo "=== validating ${#metrics_files[@]} metrics snapshot(s)"
  if ! python3 "$script_dir/validate_metrics.py" "${metrics_files[@]}"; then
    status=1
    failed+=("validate:metrics")
  fi
fi

if [[ "$status" -ne 0 ]]; then
  echo "bench failures (${#failed[@]}/$ran): ${failed[*]}" >&2
fi
exit $status
