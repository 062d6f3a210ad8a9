#!/usr/bin/env python3
"""Bench regression gate: compare a google-benchmark JSON against a committed
baseline and fail on real_time regressions beyond a threshold, or on any
change in a content-size counter.

Usage:
    bench/compare_baseline.py BASELINE.json CURRENT.json \
        [--max-regression 0.25] [--floor-ms 1.0] \
        [--baseline-metrics METRICS.json --metrics METRICS.json]

When both --baseline-metrics and --metrics name metrics snapshots (schema
lacon.metrics.v2, emitted next to each BENCH_*.json by bench/run_all.sh),
a per-phase timer comparison is printed after the gate rows. The phase diff is diagnostic only — it localizes WHICH subsystem
moved when the gate fires, but never changes the exit status, because
per-phase times at smoke budgets are far noisier than the benchmark loop's
repeated-measurement real_time.

Only benchmarks present in BOTH files are compared (renames and newly added
benchmarks never fail the gate, but an empty intersection does — that means
the baseline is stale and must be regenerated). Aggregate rows (mean/median/
stddev) are skipped. Entries whose baseline and current real_time both sit
under --floor-ms are skipped too: at smoke budgets the sub-floor rows are
dominated by scheduler noise, not code, and a 25%% swing there is
meaningless. The floor is deliberately small next to the arena benches
(~5-40 ms) it guards.

Counters named `*_bytes` (snapshot file size, WAL record bytes) measure
content, not time, so they are compared exactly, floor or not: a row in
both files whose `*_bytes` counter differs fails the gate. A counter that
only one of the two rows carries is ignored.
"""

import argparse
import json
import sys

_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def load_rows(path):
    """Benchmark name -> row, aggregate rows skipped."""
    with open(path) as f:
        doc = json.load(f)
    return {row["name"]: row for row in doc.get("benchmarks", [])
            if row.get("run_type") != "aggregate"}


def time_ms(row):
    return row["real_time"] * _UNIT_TO_MS[row.get("time_unit", "ns")]


def byte_mismatches(base_row, cur_row):
    """(counter, baseline, current) for each shared *_bytes counter that
    differs between the two rows."""
    return [(key, base_row[key], cur_row[key])
            for key in sorted(set(base_row) & set(cur_row))
            if key.endswith("_bytes") and base_row[key] != cur_row[key]]


def load_phase_timers_ms(path):
    """Timer name -> total milliseconds from a lacon.metrics snapshot."""
    with open(path) as f:
        doc = json.load(f)
    return {name: row["ns"] * 1e-6
            for name, row in doc.get("timers", {}).items()}


def print_phase_diff(baseline_path, current_path, floor_ms):
    base = load_phase_timers_ms(baseline_path)
    cur = load_phase_timers_ms(current_path)
    shared = sorted(set(base) & set(cur))
    if not shared:
        print("note: no shared phase timers between metrics snapshots")
        return
    print(f"phase timers ({baseline_path} -> {current_path}, diagnostic):")
    for name in shared:
        b, c = base[name], cur[name]
        if b < floor_ms and c < floor_ms:
            continue
        ratio = c / b if b > 0 else float("inf")
        print(f"            {name}: {b:.3f} ms -> {c:.3f} ms "
              f"({(ratio - 1.0) * 100.0:+.1f}%)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="fail when current > baseline * (1 + this)")
    ap.add_argument("--floor-ms", type=float, default=1.0,
                    help="skip rows where both times are under this")
    ap.add_argument("--baseline-metrics", default=None,
                    help="baseline metrics snapshot for the phase diff")
    ap.add_argument("--metrics", default=None,
                    help="current metrics snapshot for the phase diff")
    args = ap.parse_args()

    base_rows = load_rows(args.baseline)
    cur_rows = load_rows(args.current)
    shared = sorted(set(base_rows) & set(cur_rows))
    if not shared:
        print(f"error: no shared benchmark names between {args.baseline} "
              f"and {args.current} — regenerate the baseline", file=sys.stderr)
        return 2

    failures = []
    for name in shared:
        for key, b, c in byte_mismatches(base_rows[name], cur_rows[name]):
            print(f"{'BYTES':>10}  {name}: {key} {b:.0f} -> {c:.0f}")
            failures.append(name)
    base = {name: time_ms(row) for name, row in base_rows.items()}
    cur = {name: time_ms(row) for name, row in cur_rows.items()}
    for name in shared:
        b, c = base[name], cur[name]
        if b < args.floor_ms and c < args.floor_ms:
            continue
        ratio = c / b if b > 0 else float("inf")
        marker = "REGRESSION" if ratio > 1.0 + args.max_regression else "ok"
        print(f"{marker:>10}  {name}: {b:.3f} ms -> {c:.3f} ms "
              f"({(ratio - 1.0) * 100.0:+.1f}%)")
        if marker == "REGRESSION":
            failures.append(name)
    skipped = [n for n in sorted(set(cur) - set(base))]
    if skipped:
        print(f"note: {len(skipped)} benchmark(s) not in baseline (skipped): "
              + ", ".join(skipped))

    if args.baseline_metrics and args.metrics:
        try:
            print_phase_diff(args.baseline_metrics, args.metrics,
                             args.floor_ms)
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
            # Diagnostic output must never mask the gate verdict.
            print(f"note: phase diff unavailable ({e})", file=sys.stderr)

    if failures:
        print(f"FAIL: {len(set(failures))}/{len(shared)} benchmark(s) "
              f"regressed >{args.max_regression * 100:.0f}% or changed a "
              f"byte counter vs {args.baseline}", file=sys.stderr)
        return 1
    print(f"OK: {len(shared)} benchmark(s) within "
          f"{args.max_regression * 100:.0f}% of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
