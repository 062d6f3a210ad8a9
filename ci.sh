#!/usr/bin/env bash
# CI matrix: plain RelWithDebInfo, ThreadSanitizer and AddressSanitizer
# builds, each running the tier-1 test suite. TSan is mandatory for changes
# to shared session state: the layer cache, both interning arenas and the
# valence memo are written concurrently by laconrd's connection threads,
# and tests/service_test.cc drives them with 8 concurrent clients.
#
#   ./ci.sh            # all three configurations
#   ./ci.sh tsan       # just one: plain | tsan | asan
#   ./ci.sh coverage   # gcov line coverage of src/ (a report, no gate)
set -euo pipefail

cd "$(dirname "$0")"
JOBS="${JOBS:-$(nproc)}"

# wait_listening SOCK — returns once a connect() to the AF_UNIX socket SOCK
# succeeds, retrying for up to 5 s (examples/crash_recover.cc's wait_ready
# does the same in C++). The socket file alone proves nothing: bind()
# creates it before listen() (service/server.cc), and a client connecting
# in between gets ECONNREFUSED.
wait_listening() {
  python3 - "$1" <<'PY'
import socket
import sys
import time

deadline = time.monotonic() + 5
while True:
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.connect(sys.argv[1])
        break
    except OSError:
        if time.monotonic() > deadline:
            sys.exit("nothing listening on " + sys.argv[1] + " after 5 s")
        time.sleep(0.05)
    finally:
        probe.close()
PY
}

run_config() {
  local name="$1" sanitize="$2"
  local dir="build-ci-$name"
  echo "=== [$name] configure (LACON_SANITIZE='$sanitize')"
  cmake -B "$dir" -S . -DLACON_SANITIZE="$sanitize" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "=== [$name] build"
  cmake --build "$dir" -j "$JOBS" > /dev/null
  echo "=== [$name] ctest"
  # --timeout is a per-test backstop on top of the TIMEOUT properties set in
  # tests/CMakeLists.txt: a hung test fails loudly instead of wedging CI.
  ctest --test-dir "$dir" -j "$JOBS" --output-on-failure --timeout 300
  if [[ "$name" == "tsan" || "$name" == "asan" ]]; then
    # Fault-injection soak: re-run the runtime-facing suites with a seeded
    # fault plan so the injected-failure paths (simulated allocation
    # failure, budget trips) execute under the sanitizer. The
    # seed/rate env knobs only parameterize the dedicated FaultSoak tests;
    # the deterministic equivalence tests in the same binaries ignore them.
    echo "=== [$name] fault-injection soak" \
         "(seed=${LACON_FAULT_SEED:-20260805} rate=${LACON_FAULT_RATE:-0.05})"
    # trace_test rides along for the phase timers: four threads record
    # into one timer's buckets at once, and an injected failure unwinds
    # through explore's ScopedTimer.
    # store_test rides along for the snapshot replay paths under ASan
    # (truncated/corrupt file parsing is exactly where ASan earns its keep);
    # service_test is the concurrency soak: eight socket clients writing one
    # cold session's arenas, layer cache, valence memo and fingerprint-row
    # memo at once, every answer checked against a lone session's.
    # valence_test and runtime_test pin the lock-free per-state slots: the
    # valence memo's packed words (merged by CAS) and the layer cache's
    # published vectors, the latter raced by four classify_all callers on
    # one engine (ClassifyAll.ConcurrentCallersMatchSerial).
    # simd_test rides along so the flat-encoding kernels run their
    # randomized reference-definition sweeps under both sanitizers.
    # LACON_SYMMETRY=on puts the orbit-canonicalization memos (core/sym.hpp,
    # shared mutable state under concurrent interning) on the sanitized paths;
    # the symmetry contract says results cannot change, so the suites must
    # stay green with the quotient folding wherever a model permits it.
    for soak_bin in guard_test runtime_test valence_test fuzz_test \
                    trace_test store_test service_test simd_test sym_test; do
      LACON_FAULT_SEED="${LACON_FAULT_SEED:-20260805}" \
      LACON_FAULT_RATE="${LACON_FAULT_RATE:-0.05}" \
      LACON_SYMMETRY=on \
        "$dir/tests/$soak_bin" --gtest_brief=1
    done
    # Kill-and-recover soak: SIGKILL a WAL-enabled daemon mid-workload and
    # assert the restart serves byte-identical responses with zero
    # re-interns (examples/crash_recover.cc). The harness parent stays
    # single-threaded, so the fork is sanitizer-safe; the forked daemons
    # run the full threaded server under the sanitizer.
    echo "=== [$name] kill-and-recover soak (crash_recover)"
    "$dir/examples/crash_recover"
  fi
  if [[ "$name" == "plain" ]]; then
    # Docs drift gate: every LACON_* knob read anywhere in src/ must have a
    # README knob-table row, and every row must still be backed by a read
    # (bench/check_docs.py) — documentation for the operational surface
    # cannot silently fall behind the code.
    echo "=== [$name] docs drift gate (LACON_* knobs vs README table)"
    python3 bench/check_docs.py .
    # Perf trajectory: a bench pass on the unsanitized build, emitting one
    # BENCH_*.json per experiment into bench_results/. Every row runs
    # google-benchmark's default budget of 0.5 s. Compare against the
    # committed reference under bench/baseline/ (regenerate it with the
    # same 0.5 s budget when a PR intentionally moves performance).
    echo "=== [$name] bench smoke (BENCH_*.json -> bench_results/)"
    if ! bench/run_all.sh "$dir" bench_results > /dev/null; then
      echo "=== [$name] bench smoke FAILED" >&2
      exit 1
    fi
    ls bench_results/BENCH_*.json >/dev/null
    # Every bench emits a lacon.metrics.v2 sibling; a malformed or missing
    # snapshot fails CI before the regression gate looks at anything.
    echo "=== [$name] metrics snapshot validation (METRICS_*.json)"
    for m in bench_results/METRICS_*.json; do
      python3 -m json.tool "$m" > /dev/null
    done
    python3 bench/validate_metrics.py bench_results/METRICS_*.json
    # Regression gate on the runtime-path experiments (t9: analysis hot
    # paths, t10: arena intern contention): >25% real_time regression vs the
    # committed bench/baseline/ fails CI. Regenerate the baseline with the
    # same 0.5 s budget when a PR intentionally moves performance. The gated
    # JSONs (plus their metrics snapshots) are copied to the repo top level
    # as CI artifacts.
    # t12 rides the same hard gate: its one end-to-end row (explore +
    # similarity + diameter at n=8) regresses only if the flat-encoding
    # kernels or the paths around them got slower.
    echo "=== [$name] bench regression gate (t9+t10+t12 vs bench/baseline/)"
    for tag in t9_runtime t10_arena t12_simd; do
      python3 bench/compare_baseline.py \
        "bench/baseline/BENCH_$tag.json" "bench_results/BENCH_$tag.json" \
        --max-regression 0.25 \
        --baseline-metrics "bench/baseline/METRICS_$tag.json" \
        --metrics "bench_results/METRICS_$tag.json"
      cp "bench_results/BENCH_$tag.json" "BENCH_$tag.json"
      cp "bench_results/METRICS_$tag.json" "METRICS_$tag.json"
    done
    # Snapshot store gate: t11 measures file IO, which is noisier than the
    # in-memory t9/t10 paths, so its threshold is looser than the hard 25%
    # gate above. Regenerate bench/baseline/BENCH_t11_store.json with the
    # same 0.5 s budget when the format or the workloads change.
    echo "=== [$name] bench regression gate (t11 store vs bench/baseline/)"
    python3 bench/compare_baseline.py \
      "bench/baseline/BENCH_t11_store.json" \
      "bench_results/BENCH_t11_store.json" \
      --max-regression 0.75 \
      --baseline-metrics "bench/baseline/METRICS_t11_store.json" \
      --metrics "bench_results/METRICS_t11_store.json"
    cp bench_results/BENCH_t11_store.json BENCH_t11_store.json
    cp bench_results/METRICS_t11_store.json METRICS_t11_store.json
    # t13 gates both symmetry modes: the quotient rows catch the
    # canonicalizer itself getting slower, the full rows catch the off-mode
    # paying for machinery it is supposed to bypass entirely. It shares
    # t11's looser threshold, not the hard 25% gate: the full-space rows
    # explore-and-classify hundreds of thousands of states per iteration,
    # and at the 0.5 s budget that workload is allocator/cache noise on the
    # order of ±20% run to run.
    echo "=== [$name] bench regression gate (t13 symmetry vs bench/baseline/)"
    python3 bench/compare_baseline.py \
      "bench/baseline/BENCH_t13_symmetry.json" \
      "bench_results/BENCH_t13_symmetry.json" \
      --max-regression 0.75 \
      --baseline-metrics "bench/baseline/METRICS_t13_symmetry.json" \
      --metrics "bench_results/METRICS_t13_symmetry.json"
    cp bench_results/BENCH_t13_symmetry.json BENCH_t13_symmetry.json
    cp bench_results/METRICS_t13_symmetry.json METRICS_t13_symmetry.json
    # Persistence round trip (acceptance: snapshot round-trip is lossless).
    # A cold run saves a snapshot; a warm run loads it, reruns the identical
    # analysis and must (i) print byte-identical canonical output and (ii)
    # intern nothing new — store_roundtrip itself exits nonzero if the warm
    # arena miss counter moved. The snapshot ships as a CI artifact.
    echo "=== [$name] store round-trip lane (cold vs warm, byte-identical)"
    rm -rf store_artifacts && mkdir -p store_artifacts
    snap=store_artifacts/mobile.n3.t1.lacon.store
    "$dir/examples/store_roundtrip" --save "$snap" \
      --model mobile --n 3 --depth 2 --horizon 3 > store_artifacts/cold.txt
    "$dir/examples/store_roundtrip" --load "$snap" \
      --model mobile --n 3 --depth 2 --horizon 3 > store_artifacts/warm.txt
    cmp store_artifacts/cold.txt store_artifacts/warm.txt
    # laconrd smoke: daemon up, two concurrent clients — one starved by a
    # tiny budget (must answer "truncated" with its reason), one unbudgeted
    # (must answer "ok") — then a clean shutdown. SIGTERM, not SIGINT:
    # non-interactive shells start background jobs with SIGINT ignored, so
    # an INT-based smoke would hang here while working fine interactively.
    echo "=== [$name] laconrd smoke (2 concurrent clients + SIGTERM)"
    sock="/tmp/laconrd_ci_$$.sock"
    "$dir/examples/laconrd" --socket "$sock" &
    laconrd_pid=$!
    wait_listening "$sock"
    "$dir/examples/laconrd" --socket "$sock" --client \
      '{"id":"starved","model":"sharedmem","n":3,"depth":4,"budget_ms":1}' \
      > store_artifacts/starved.json &
    client_pid=$!
    "$dir/examples/laconrd" --socket "$sock" --client \
      '{"id":"free","model":"mobile","n":3,"depth":2,"query":"valence"}' \
      > store_artifacts/free.json
    wait "$client_pid"
    grep -q '"status":"truncated","truncation":"deadline"' \
      store_artifacts/starved.json
    grep -q '"status":"ok"' store_artifacts/free.json
    # The same unbudgeted request again is replayed from the session's
    # answer cache: the first response's result, with metrics.cached set.
    "$dir/examples/laconrd" --socket "$sock" --client \
      '{"id":"free","model":"mobile","n":3,"depth":2,"query":"valence"}' \
      > store_artifacts/free_again.json
    python3 -c '
import json, sys
first, again = (json.load(open(p)) for p in sys.argv[1:])
assert again["result"] == first["result"], (first, again)
assert again["metrics"]["cached"] is True, again
' store_artifacts/free.json store_artifacts/free_again.json
    # The stats query answers the live lacon.metrics.v2 document.
    "$dir/examples/laconrd" --socket "$sock" --client \
      '{"id":"stats","query":"stats"}' > store_artifacts/stats.json
    python3 bench/validate_metrics.py store_artifacts/stats.json
    kill -TERM "$laconrd_pid"
    wait "$laconrd_pid"
    # Symmetry identity lane (DESIGN.md §15): the same request sequence
    # against a LACON_SYMMETRY=off and a LACON_SYMMETRY=on daemon must
    # produce identical mode-independent response fields (id/status/result;
    # the mode-dependent raw-arena "metrics" object is excluded), and the
    # on-daemon must prove it actually quotiented at least one session —
    # both asserted by bench/check_identity.py. msgpass is the full-symmetry
    # model among the served four; the rest pin down that the knob cannot
    # perturb trivially-symmetric sessions.
    echo "=== [$name] symmetry identity lane (LACON_SYMMETRY off vs on)"
    sym_reqs=(
      '{"id":1,"model":"msgpass","n":3,"query":"layers","depth":2}'
      '{"id":2,"model":"msgpass","n":3,"query":"valence","depth":1,"horizon":2}'
      '{"id":3,"model":"msgpass","n":3,"query":"diameter","depth":1}'
      '{"id":4,"model":"msgpass","n":3,"query":"similarity","depth":1}'
      '{"id":5,"model":"mobile","n":4,"query":"layers","depth":2}'
      '{"id":6,"model":"sharedmem","n":3,"query":"valence","depth":2,"horizon":2}'
      '{"id":7,"model":"sync","n":4,"t":2,"query":"layers","depth":2}'
    )
    for sym_mode in off on; do
      ssock="/tmp/laconrd_sym_${sym_mode}_$$.sock"
      LACON_SYMMETRY="$sym_mode" LACON_WAL=off \
        "$dir/examples/laconrd" --socket "$ssock" &
      sym_pid=$!
      wait_listening "$ssock"
      : > "store_artifacts/sym_$sym_mode.jsonl"
      for r in "${sym_reqs[@]}"; do
        "$dir/examples/laconrd" --socket "$ssock" --client "$r" \
          >> "store_artifacts/sym_$sym_mode.jsonl"
      done
      kill -TERM "$sym_pid"
      wait "$sym_pid"
      rm -f "$ssock"
    done
    python3 bench/check_identity.py \
      store_artifacts/sym_off.jsonl store_artifacts/sym_on.jsonl
    # Kill-and-recover lane (DESIGN.md §14): a WAL-enabled daemon serves a
    # workload, gets SIGKILLed with a request in flight, and the restart
    # over the same store dir must answer the identical requests with
    # byte-identical result payloads, zero re-interns (new_states == 0 on
    # every response) and arena.state_restored covering the replayed space
    # — all asserted by bench/check_recovery.py. The in-process variant of
    # this lane (examples/crash_recover.cc) also runs under TSan/ASan.
    echo "=== [$name] kill-and-recover lane (LACON_WAL=on" \
         "+ SIGKILL under 4 concurrent clients)"
    "$dir/examples/crash_recover"
    wal_dir="store_artifacts/wal_recover"
    rm -rf "$wal_dir" && mkdir -p "$wal_dir"
    wal_reqs=(
      '{"id":1,"model":"mobile","n":3,"query":"layers","depth":2}'
      '{"id":2,"model":"mobile","n":3,"query":"valence","depth":2,"horizon":3}'
      '{"id":3,"model":"mobile","n":3,"query":"diameter","depth":2}'
      '{"id":4,"model":"mobile","n":3,"query":"similarity","depth":2}'
    )
    wsock="/tmp/laconrd_wal1_$$.sock"
    LACON_WAL=on LACON_STORE_DIR="$wal_dir" \
      "$dir/examples/laconrd" --socket "$wsock" &
    wal_pid=$!
    wait_listening "$wsock"
    # Every request goes twice on both sides of the kill: the second is
    # replayed from the session's answer cache, so check_recovery.py also
    # compares the pre-crash replays with the post-restart answers.
    : > "$wal_dir/before.jsonl"
    for r in "${wal_reqs[@]}"; do
      for _ in 1 2; do
        "$dir/examples/laconrd" --socket "$wsock" --client "$r" \
          >> "$wal_dir/before.jsonl"
      done
    done
    # Four clients go in flight concurrently — three hammer the committed
    # session at distinct horizons (their commits coalesce into group-commit
    # rounds), one interns a bigger fresh session — then the SIGKILL lands
    # under all of them.
    inflight_reqs=(
      '{"id":5,"model":"mobile","n":3,"query":"valence","depth":2,"horizon":4}'
      '{"id":6,"model":"mobile","n":3,"query":"valence","depth":2,"horizon":5}'
      '{"id":7,"model":"mobile","n":3,"query":"layers","depth":3}'
      '{"id":8,"model":"mobile","n":4,"query":"layers","depth":3}'
    )
    inflight_pids=()
    for r in "${inflight_reqs[@]}"; do
      "$dir/examples/laconrd" --socket "$wsock" --timeout 10000 --client \
        "$r" > /dev/null 2>&1 &
      inflight_pids+=($!)
    done
    sleep 0.1
    kill -KILL "$wal_pid"
    wait "$wal_pid" && exit 1 || true  # must report the kill, not exit 0
    for p in "${inflight_pids[@]}"; do
      wait "$p" || true                # may have lost its connection: fine
    done
    # Restart over the same store dir on a fresh socket (the killed
    # daemon's socket file survives it, with nothing listening behind it).
    wsock2="/tmp/laconrd_wal2_$$.sock"
    LACON_WAL=on LACON_STORE_DIR="$wal_dir" \
      "$dir/examples/laconrd" --socket "$wsock2" &
    wal_pid=$!
    wait_listening "$wsock2"
    : > "$wal_dir/after.jsonl"
    for r in "${wal_reqs[@]}"; do
      for _ in 1 2; do
        "$dir/examples/laconrd" --socket "$wsock2" --client "$r" \
          >> "$wal_dir/after.jsonl"
      done
    done
    "$dir/examples/laconrd" --socket "$wsock2" --client \
      '{"id":9,"model":"mobile","n":3,"query":"layers","depth":2,"metrics":true}' \
      > "$wal_dir/probe.json"
    python3 bench/check_recovery.py \
      "$wal_dir/before.jsonl" "$wal_dir/after.jsonl" "$wal_dir/probe.json"
    # The probe's embedded snapshot is the daemon's lacon.metrics.v2 path:
    # schema-check it like the bench artifacts.
    python3 bench/validate_metrics.py "$wal_dir/probe.json"
    kill -TERM "$wal_pid"
    wait "$wal_pid"
    rm -f "$wsock" "$wsock2"
  fi
}

# Line coverage of src/ by the tier-1 tests: an -O1 gcov build runs ctest
# without the smoke_bench_* runs (those time the benches, they test
# nothing), then bench/coverage.py merges the counts across translation
# units and prints the total and every file's unexecuted lines. A report,
# not a gate: every unexecuted line should get a test or be deleted.
run_coverage() {
  local dir="build-ci-coverage"
  echo "=== [coverage] configure (-O1 -g --coverage -DNDEBUG)"
  cmake -B "$dir" -S . -DLACON_SANITIZE= -DCMAKE_BUILD_TYPE=None \
        -DCMAKE_CXX_FLAGS="-O1 -g --coverage -DNDEBUG" > /dev/null
  echo "=== [coverage] build"
  cmake --build "$dir" -j "$JOBS" > /dev/null
  # Counts accumulate across runs; start from zero.
  find "$dir" -name '*.gcda' -delete
  echo "=== [coverage] ctest (without smoke_bench_*)"
  ctest --test-dir "$dir" -j "$JOBS" --output-on-failure --timeout 900 \
        -E '^smoke_bench_'
  python3 bench/coverage.py "$dir"
}

configs=("${1:-all}")
if [[ "${configs[0]}" == "all" ]]; then configs=(plain tsan asan); fi

for c in "${configs[@]}"; do
  case "$c" in
    plain) run_config plain "" ;;
    tsan)  run_config tsan thread ;;
    asan)  run_config asan address ;;
    coverage) run_coverage ;;
    *) echo "unknown config '$c' (plain|tsan|asan|coverage|all)" >&2
       exit 2 ;;
  esac
done
echo "=== CI matrix OK: ${configs[*]}"
