#!/usr/bin/env python3
"""Line coverage of src/ from a gcov-instrumented build.

Usage:
    bench/coverage.py BUILD_DIR [--root REPO_ROOT] [--lines]

BUILD_DIR is a tree configured with `-O1 -g --coverage -DNDEBUG` whose
tests have run; `./ci.sh coverage` builds one, runs ctest without the
smoke_bench_* runs and then calls this script. It runs
`gcov --json-format --stdout` on every .gcda file under BUILD_DIR and keeps
the lines of files under REPO_ROOT/src. Lines are merged across
translation units: a line is executable if any unit compiled code for it,
and executed if any unit ran it (a header's inline code is compiled into
many units).

Prints the total, then every src/ file with unexecuted lines, most first.
gcov charges a scope's unwind cleanup to its closing brace, so the end of a
function every run executes can read as unexecuted; such lone closing
braces are counted in a column of their own, and the "unexecuted" column
counts the other lines, the statements. --lines also lists each file's
unexecuted statement line numbers. Report only: the exit status is 0
whatever the coverage is, and 1 only when no .gcda file was found or gcov
failed.
"""

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys

# A line whose code is only closing braces (and parentheses or semicolons),
# once a trailing // comment is dropped.
LONE_BRACE = re.compile(r"^[)};]*\}[)};]*$")


def gcda_files(build_dir):
    for dirpath, _dirnames, filenames in os.walk(os.path.abspath(build_dir)):
        for name in filenames:
            if name.endswith(".gcda"):
                yield os.path.join(dirpath, name)


def run_gcov(gcda):
    """The gcov JSON documents for one .gcda file (one per line of output)."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--object-directory",
         os.path.dirname(gcda), gcda],
        cwd=os.path.dirname(gcda), capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines() if line]


def merge(docs, src_root):
    """{src-relative path: {line: executed?}} over every document."""
    lines = {}
    for doc in docs:
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src_root + os.sep):
                continue
            rel = os.path.relpath(path, os.path.dirname(src_root))
            seen = lines.setdefault(rel, {})
            for entry in f["lines"]:
                n = entry["line_number"]
                seen[n] = seen.get(n, False) or entry["count"] > 0
    return lines


def ranges(numbers):
    """[3, 4, 5, 9] -> "3-5 9"."""
    out, start, prev = [], None, None
    for n in sorted(numbers):
        if start is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(f"{start}-{prev}" if prev != start else str(start))
        start = prev = n
    if start is not None:
        out.append(f"{start}-{prev}" if prev != start else str(start))
    return " ".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir")
    parser.add_argument("--root", default=".")
    parser.add_argument("--lines", action="store_true",
                        help="list each file's unexecuted line numbers")
    args = parser.parse_args()

    src_root = os.path.realpath(os.path.join(args.root, "src"))
    files = sorted(gcda_files(args.build_dir))
    if not files:
        print(f"coverage: no .gcda files under {args.build_dir}",
              file=sys.stderr)
        return 1
    docs = []
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            for result in pool.map(run_gcov, files):
                docs.extend(result)
    except subprocess.CalledProcessError as e:
        print(f"coverage: gcov failed: {e.stderr.strip()}", file=sys.stderr)
        return 1

    lines = merge(docs, src_root)
    total = sum(len(seen) for seen in lines.values())
    missed, braces = {}, {}
    for path, seen in lines.items():
        with open(os.path.join(os.path.dirname(src_root), path),
                  encoding="utf-8") as f:
            text = f.read().splitlines()
        unrun = sorted(n for n, ran in seen.items() if not ran)
        lone = {n for n in unrun if n <= len(text) and LONE_BRACE.match(
            re.sub(r"\s+", "", text[n - 1].split("//")[0]))}
        braces[path] = len(lone)
        missed[path] = [n for n in unrun if n not in lone]
    unexecuted = sum(len(m) for m in missed.values())
    lone_braces = sum(braces.values())
    executed = total - unexecuted - lone_braces
    percent = 100.0 * executed / total if total else 0.0
    print(f"coverage: src/ {executed}/{total} lines executed ({percent:.1f} %),"
          f" {unexecuted} unexecuted statements + {lone_braces} unexecuted"
          f" lone closing braces, {len(lines)} files, {len(files)} .gcda files")
    print(f"{'unexecuted':>10} {'braces':>6} {'lines':>6}  file")
    for path in sorted(missed, key=lambda p: (-len(missed[p]), p)):
        if not missed[path] and not braces[path]:
            continue
        print(f"{len(missed[path]):>10} {braces[path]:>6} "
              f"{len(lines[path]):>6}  {path}")
        if args.lines and missed[path]:
            print(f"{'':>25}{ranges(missed[path])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
