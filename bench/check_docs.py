#!/usr/bin/env python3
"""Docs drift gate: every LACON_* knob and every phase timer the source
uses is documented, and nothing documented is stale.

Usage:
    bench/check_docs.py [REPO_ROOT]

Knobs: scans src/ for environment reads of LACON_* variables (getenv call
sites) and asserts each one has a row in README.md's knob table — the `|
`LACON_X` | ...` rows. The reverse direction is checked too: a knob row
whose variable no source file reads anymore is stale documentation and
fails the gate just the same. This keeps the README's operational surface
exactly in sync with the code; FORMATS.md / PROTOCOL.md cover the on-disk
and wire surfaces, but the knob table is the one place operators learn
what the process environment does.

Phases: scans src/ for `timer("name")` literals (the Stats registry's
phase timers) and asserts each one has a row in DESIGN.md §11's phase
table — the `| `name` | ...` rows of that section — and that every row
names a timer src/ records. Phase names are what the metrics snapshot and
perfbench report, so a renamed or new phase must be documented with it.
"""

import os
import re
import sys

_GETENV = re.compile(r'getenv\s*\(\s*"(LACON_[A-Z0-9_]+)"')
_KNOB_ROW = re.compile(r"^\|\s*`(LACON_[A-Z0-9_]+)`\s*\|")
_TIMER = re.compile(r'timer\s*\(\s*"([^"]+)"\s*\)')
_PHASE_ROW = re.compile(r"^\|\s*`([a-z0-9_.]+)`\s*\|")
_PHASE_SECTION = "## 11. "


def names_in_src(root, pattern):
    """Name -> first src/ file (relative to root) where pattern matches."""
    found = {}
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "src")):
        for name in sorted(filenames):
            if not name.endswith((".cc", ".hpp", ".h")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                for match in pattern.findall(f.read()):
                    found.setdefault(match, os.path.relpath(path, root))
    return found


def knobs_documented(root):
    rows = set()
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        for line in f:
            m = _KNOB_ROW.match(line)
            if m:
                rows.add(m.group(1))
    return rows


def phases_documented(root):
    rows = set()
    in_section = False
    with open(os.path.join(root, "DESIGN.md"), encoding="utf-8") as f:
        for line in f:
            if line.startswith("## "):
                in_section = line.startswith(_PHASE_SECTION)
            elif in_section:
                m = _PHASE_ROW.match(line)
                if m:
                    rows.add(m.group(1))
    return rows


def drift(kind, used, documented, table):
    """Prints one FAIL line per undocumented or stale name; returns count."""
    failures = 0
    for name in sorted(set(used) - documented):
        print(f"check_docs: FAIL {kind} {name} is used ({used[name]}) but "
              f"has no {table} row")
        failures += 1
    for name in sorted(documented - set(used)):
        print(f"check_docs: FAIL {kind} {name} has a {table} row but "
              "nothing in src/ uses it")
        failures += 1
    return failures


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    knobs = names_in_src(root, _GETENV)
    phases = names_in_src(root, _TIMER)
    failures = drift("knob", knobs, knobs_documented(root),
                     "README.md knob-table")
    failures += drift("phase", phases, phases_documented(root),
                      "DESIGN.md §11 phase-table")

    if failures:
        return 1
    print(
        f"check_docs: OK ({len(knobs)} knobs read in src/, "
        f"{len(phases)} phase timers recorded in src/, every one "
        "documented, no stale rows)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
