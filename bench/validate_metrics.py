#!/usr/bin/env python3
"""Schema validation for lacon observability artifacts.

Usage:
    bench/validate_metrics.py --kind metrics METRICS_t9_runtime.json ...
    bench/validate_metrics.py --kind trace TRACE_t9_runtime.json ...

--kind metrics checks a MetricsSnapshot (schema "lacon.metrics.v1", see
DESIGN.md §11): every top-level key present, counters/timers/histograms
well-formed, histogram bucket lists sparse and sorted by lower bound.

--kind trace checks a Chrome trace-event file: traceEvents is a list, every
event carries ph/pid/tid, "X" events carry ts and dur, and at least one complete
span is present (a trace emitted under LACON_TRACE=spans that contains no
spans means the instrumentation went missing).

Exit status: 0 when all files validate, 1 otherwise. Each failure prints a
path-prefixed reason so CI logs show which artifact is broken.
"""

import argparse
import json
import sys

METRICS_KEYS = {
    "schema", "trace_mode", "guard", "counters", "timers", "histograms",
    "spans",
}
GUARD_KEYS = {"budget_ms", "max_states", "trips"}
TRIP_KEYS = {"deadline", "state_budget"}


def fail(path, reason):
    print(f"{path}: INVALID — {reason}", file=sys.stderr)
    return False


def check_metrics(path, doc):
    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    missing = METRICS_KEYS - doc.keys()
    if missing:
        return fail(path, f"missing keys: {sorted(missing)}")
    if doc["schema"] != "lacon.metrics.v1":
        return fail(path, f"unexpected schema {doc['schema']!r}")
    if doc["trace_mode"] not in ("off", "counters", "spans"):
        return fail(path, f"unknown trace_mode {doc['trace_mode']!r}")
    guard = doc["guard"]
    if not isinstance(guard, dict) or GUARD_KEYS - guard.keys():
        return fail(path, f"guard block must carry {sorted(GUARD_KEYS)}")
    if TRIP_KEYS - guard["trips"].keys():
        return fail(path, f"guard.trips must carry {sorted(TRIP_KEYS)}")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            return fail(path, f"counter {name!r} is not a non-negative int")
    for name, row in doc["timers"].items():
        if not isinstance(row, dict) or {"ns", "calls"} - row.keys():
            return fail(path, f"timer {name!r} must carry ns and calls")
    for name, row in doc["histograms"].items():
        if not isinstance(row, dict) or {"count", "sum", "buckets"} - row.keys():
            return fail(path, f"histogram {name!r} must carry count/sum/buckets")
        buckets = row["buckets"]
        lowers = [b[0] for b in buckets]
        if lowers != sorted(lowers):
            return fail(path, f"histogram {name!r} buckets not sorted")
        if sum(b[1] for b in buckets) != row["count"]:
            return fail(path, f"histogram {name!r} bucket counts != count")
    spans = doc["spans"]
    if not isinstance(spans, dict) or {"recorded", "dropped"} - spans.keys():
        return fail(path, "spans block must carry recorded and dropped")
    return True


def check_trace(path, doc):
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return fail(path, "missing traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return fail(path, "traceEvents is not a list")
    complete = 0
    for i, ev in enumerate(events):
        for key in ("ph", "pid", "tid"):
            if key not in ev:
                return fail(path, f"event {i} missing {key!r}")
        if ev["ph"] == "X":
            for key in ("ts", "dur"):
                if key not in ev:
                    return fail(path, f"event {i} (X) missing {key!r}")
            complete += 1
    if complete == 0:
        return fail(path, "no complete ('X') span events")
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--kind", choices=("metrics", "trace"), required=True)
    ap.add_argument("files", nargs="+")
    args = ap.parse_args()

    check = check_metrics if args.kind == "metrics" else check_trace
    ok = True
    for path in args.files:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            ok = fail(path, str(e))
            continue
        if check(path, doc):
            print(f"{path}: ok")
        else:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
