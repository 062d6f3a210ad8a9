#!/usr/bin/env python3
"""Schema validation for lacon.metrics.v2 documents (DESIGN.md §11).

Usage:
    bench/validate_metrics.py METRICS_t9_runtime.json ... [PROBE.json ...]

Each file holds either a metrics document (bench/run_all.sh writes one per
bench) or a laconrd response to a request sent with "metrics": true, whose
"snapshot" member embeds the document; the embedded one is checked then.

Checks: exactly the top-level keys schema/guard/counters/timers; the guard
block well-formed; counter and timer names sorted; every counter a
non-negative int; every timer row exactly {"buckets", "calls", "ns"} in
that (sorted) key order, its buckets sparse [lower_bound_ns, count] pairs
with power-of-two lower bounds in ascending order, bucket counts summing to
"calls", and "ns" within the range those buckets allow. A document taken
while no timer records is exact, so the sums must hold exactly.

Exit status: 0 when all files validate, 1 otherwise. Each failure prints a
path-prefixed reason so CI logs show which artifact is broken.
"""

import json
import sys

METRICS_KEYS = {"schema", "guard", "counters", "timers"}
GUARD_KEYS = {"budget_ms", "max_states", "trips"}
TRIP_KEYS = {"deadline", "state_budget"}
TIMER_KEYS = ["buckets", "calls", "ns"]


def fail(path, reason):
    print(f"{path}: INVALID — {reason}", file=sys.stderr)
    return False


def is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_timer(path, name, row):
    if not isinstance(row, dict) or list(row) != TIMER_KEYS:
        return fail(path, f"timer {name!r} must carry exactly {TIMER_KEYS}")
    if not is_count(row["calls"]) or not is_count(row["ns"]):
        return fail(path, f"timer {name!r} calls/ns are not non-negative ints")
    lowest = -1
    calls = low = high = 0
    for pair in row["buckets"]:
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(is_count(v) for v in pair) or pair[1] == 0):
            return fail(path, f"timer {name!r} bucket {pair!r} malformed")
        lower, count = pair
        if lower & (lower - 1) or lower <= lowest:
            return fail(path, f"timer {name!r} buckets not ascending powers "
                        "of two")
        lowest = lower
        calls += count
        low += lower * count
        high += max(2 * lower - 1, 0) * count
    if calls != row["calls"]:
        return fail(path, f"timer {name!r} bucket counts {calls} != calls "
                    f"{row['calls']}")
    if not low <= row["ns"] <= high:
        return fail(path, f"timer {name!r} ns {row['ns']} outside its "
                    f"buckets' range [{low}, {high}]")
    return True


def check_metrics(path, doc):
    if isinstance(doc, dict) and "snapshot" in doc and "schema" not in doc:
        doc = doc["snapshot"]  # a laconrd response embedding the document
    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    if doc.keys() != METRICS_KEYS:
        return fail(path, f"top-level keys {sorted(doc)} are not "
                    f"{sorted(METRICS_KEYS)}")
    if doc["schema"] != "lacon.metrics.v2":
        return fail(path, f"unexpected schema {doc['schema']!r}")
    guard = doc["guard"]
    if not isinstance(guard, dict) or GUARD_KEYS - guard.keys():
        return fail(path, f"guard block must carry {sorted(GUARD_KEYS)}")
    if TRIP_KEYS - guard["trips"].keys():
        return fail(path, f"guard.trips must carry {sorted(TRIP_KEYS)}")
    for block in ("counters", "timers"):
        if list(doc[block]) != sorted(doc[block]):
            return fail(path, f"{block} names are not sorted")
    for name, value in doc["counters"].items():
        if not is_count(value):
            return fail(path, f"counter {name!r} is not a non-negative int")
    return all(check_timer(path, name, row)
               for name, row in doc["timers"].items())


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    ok = True
    for path in sys.argv[1:]:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            ok = fail(path, str(e))
            continue
        if check_metrics(path, doc):
            print(f"{path}: ok")
        else:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
