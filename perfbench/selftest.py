#!/usr/bin/env python3
"""The benchmark's own test: python3 perfbench/selftest.py (from the root).

Runs every workload in the fast mode (tiny scripts, verdicts at n=2), with
tracing off and on, and checks that
  1. every end-to-end and per-layer metric of BENCHMARK.json is printed,
     with its unit;
  2. the answer checker fails a run when one expected value is corrupted;
  3. traced and untraced runs give identical answers.
Exits 0 when all hold.
"""
import contextlib
import copy
import io
import json
import os
import shutil
import sys

import daemon as D
import run as R


def call(argv):
    """Runs one benchmark run in-process; returns (result, checker)."""
    args = R.argparse.Namespace(workload=None, seed=1, seconds=1, trace=0,
                                selftest=True, expected=R.EXPECTED_PATH,
                                record=False)
    for k, v in argv.items():
        setattr(args, k, v)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result, _, checker = R.run(args)
    return result, checker


def main():
    os.chdir(os.path.dirname(R.HERE))
    with open(R.BENCHMARK_PATH) as f:
        bench = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for workload in ("verdicts", "warm_mix", "durable_mix"):
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, checker = call({"workload": workload, "trace": trace})
            m = result["metrics"]
            missing = [s["name"] for s in specs
                       if m.get(s["name"], {}).get("unit") != s["unit"]]
            expect(not missing and set(m) == {s["name"] for s in specs},
                   "%s trace=%d prints every metric with its unit%s" %
                   (workload, trace, " (missing %s)" % missing[:3]
                    if missing else ""))
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] > 0,
                   "%s trace=%d answers all correct (%d attempted)" %
                   (workload, trace, result["attempted"]))
            if trace:
                seen = checker.seen
                if workload == "verdicts":
                    same = seen.get("suite") == seen.get("traced_suite")
                else:
                    shapes = set(seen.get("replay", {}))
                    same = bool(shapes) and all(
                        len(seen["replay"][k]) == 1 and
                        seen["daemon"].get(k) == seen["replay"][k]
                        for k in shapes)
                expect(same, "%s traced and untraced answers identical" %
                       workload)

    # A corrupted expected value must fail the run.
    expected = R.load_expected(R.EXPECTED_PATH)
    tmp = D.fresh_dir("selftest")
    try:
        for workload in ("verdicts", "warm_mix", "durable_mix"):
            bad = copy.deepcopy(expected)
            if workload == "verdicts":
                bad["verdicts"]["2 1 2 3"][0][3] += 1
            else:
                script = (R.W.warm_script(1, 1, True) if workload == "warm_mix"
                          else R.W.durable_script(1, 1, True))
                key = R.W.shape_key(script["setup"][0])
                result = bad["shapes"][key]
                field = sorted(k for k, v in result.items()
                               if isinstance(v, int) and
                               not isinstance(v, bool))[0]
                result[field] += 1
            path = os.path.join(tmp, "expected-%s.json" % workload)
            with open(path, "w") as f:
                json.dump(bad, f)
            result, _ = call({"workload": workload, "expected": path})
            expect(not result["correct"] and result["failed"] >= 1,
                   "%s fails on a corrupted expected value (%d failed)" %
                   (workload, result["failed"]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("selftest: %s" % ("PASS" if not failures else
                            "%d FAILED" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
