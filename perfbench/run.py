#!/usr/bin/env python3
"""lacon benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload verdicts|warm_mix|durable_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest      # fast self-test (README.md)
    python3 perfbench/run.py --record        # re-record expected.json

Run from the repository root. Builds laconrd and lacon_perf from the
checkout into .bench_build/ on first use. The last line of stdout is the
result object; the line before it records the host and the knobs. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (README.md explains both).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import daemon as D
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
BENCHMARK_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class WrongAnswer(Exception):
    pass


# ------------------------------------------------------------------ stats

def pct(values, q):
    """The q-th percentile (nearest rank) of `values`."""
    s = sorted(values)
    if not s:
        return 0.0
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))
    return s[k]


# ---------------------------------------------------------------- answers

def load_expected(path):
    with open(path) as f:
        return json.load(f)


class Checker:
    """Compares answers against expected.json; counts attempts and failures.

    Keeps every answer it saw, by source ("daemon", "replay", "suite"), so
    that the self-test can compare traced and untraced answers directly.
    """

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.seen = {}

    def _keep(self, source, key, value):
        self.seen.setdefault(source, {}).setdefault(key, set()).add(
            json.dumps(value, sort_keys=True))

    def response(self, request_line, response_text):
        """Checks one daemon response line; returns the parsed response."""
        self.attempted += 1
        try:
            resp = json.loads(response_text)
        except ValueError:
            self.failed += 1
            self.wrong.append((request_line, "unparsable response"))
            return None
        want = self.expected["shapes"].get(W.shape_key(request_line))
        self._keep("daemon", W.shape_key(request_line), resp.get("result"))
        if resp.get("status") != "ok":
            self.failed += 1
            self.wrong.append((request_line, resp.get("status")))
        elif want is None:
            self.failed += 1
            self.wrong.append((request_line, "no recorded answer"))
        elif resp.get("result") != want:
            self.failed += 1
            self.wrong.append((request_line, "answer differs"))
        return resp

    def replay_answer(self, request_line, answer):
        self.attempted += 1
        want = self.expected["shapes"].get(W.shape_key(request_line))
        self._keep("replay", W.shape_key(request_line), answer["result"])
        if answer["status"] != "ok" or answer["result"] != want:
            self.failed += 1
            self.wrong.append((request_line, "replayed answer differs"))

    def rows(self, instance, rows, source):
        want = self.expected["verdicts"][" ".join(map(str, instance))]
        got = [[r["model"], r["check"], r["ok"], r["checked"]] for r in rows]
        self._keep(source, " ".join(map(str, instance)), got)
        self.attempted += len(want)
        for i, w in enumerate(want):
            if i >= len(got) or got[i] != w or not got[i][2]:
                self.failed += 1
                self.wrong.append((w, got[i] if i < len(got) else None))


# --------------------------------------------------------------- verdicts

def run_suite(perf, instance, spans, tmp, setup_only=False):
    out = os.path.join(tmp, "suite-%d.json" % time.monotonic_ns())
    env = D.lacon_env(LACON_THREADS=4)
    args = [perf, "verdicts"] + [str(x) for x in instance] + [
        str(int(spans)), out]
    if setup_only:
        args.append("--setup-only")
    t0 = time.monotonic_ns()
    proc = subprocess.run(args, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, check=True, text=True)
    if setup_only:
        return (int(proc.stdout.strip()) - t0) / 1e9
    with open(out) as f:
        res = json.load(f)
    os.remove(out)
    res["setup_s"] = (res["first_row_ns"] - t0) / 1e9
    return res


SETUP_SAMPLES = 19


def verdicts(perf, args, checker, tmp):
    instance = (W.SELFTEST_VERDICT_INSTANCE if args.selftest
                else W.VERDICT_INSTANCE)
    # setup_s: process start until the first row begins, sampled in fresh
    # processes that stop there (a few ms each), plus the measured run's own.
    setups = [run_suite(perf, instance, False, tmp, setup_only=True)
              for _ in range(SETUP_SAMPLES)]
    res = run_suite(perf, instance, False, tmp)
    setups.append(res["setup_s"])
    checker.rows(instance, res["rows"], "suite")
    check_ms = verdict_checks(res)
    # Ten operations: interpolate between ranks rather than pick one check.
    q = statistics.quantiles(check_ms, n=100, method="inclusive")
    suite_s = res["suite_ns"] / 1e9
    e2e = {
        "setup_s": statistics.median(setups),
        "suite_s": suite_s,
        "latency_p50_ms": q[49],
        "latency_tail_ms": q[W.TAIL["verdicts"] - 1],
        "throughput_rps": len(res["rows"]) / suite_s,
        "peak_rss_mb": res["rss_mb"],
    }
    info = {"check_ms": check_ms, "tail": "p%d" % W.TAIL["verdicts"]}
    if not args.trace:
        return e2e, info
    traced = run_suite(perf, instance, True, tmp)
    checker.rows(instance, traced["rows"], "traced_suite")
    layer = verdict_layers(traced)
    layer["trace.overhead_ratio"] = traced["suite_ns"] / res["suite_ns"]
    return layer, info


def verdict_checks(res):
    """Wall ms of each check across the four models, and of the topology pair.

    These ten operations (one lemma verified in every model) are what
    verdicts' latency metrics range over. Its 30 rows are no distribution:
    they span 0.03 ms to 10 s, and the rows around their median are a few ms
    apart, so host noise reorders them and the row median jumps between them.
    """
    checks = {}
    for r in res["rows"]:
        key = "topology" if r["model"] == "topology" else r["check"]
        checks[key] = checks.get(key, 0) + r["wall_ns"] / 1e6
    return list(checks.values())


# ----------------------------------------------------- request workloads

def daemon_env(workload, store_dir):
    if workload == "warm_mix":
        return D.lacon_env(LACON_THREADS=W.WARM_THREADS, LACON_WAL="off",
                           LACON_STORE_DIR=store_dir)
    return D.lacon_env(LACON_THREADS=W.DURABLE_THREADS, LACON_WAL="on",
                       LACON_STORE_DIR=store_dir)


def sequential(d, lines, checker):
    sock = d.connect()
    try:
        for l, r in zip(lines, D.request_sequential(sock, lines)):
            checker.response(l, r)
    finally:
        sock.close()


def timed_phase(d, conns, checker, samples):
    """Runs one cycle's connections; appends (latency_ms, outside_ms,
    new_states) per request to `samples`. Returns (ok, wall_s)."""
    socks = [d.connect() for _ in conns]
    try:
        records, wall_ns = D.run_closed_loop(socks, conns)
    finally:
        for s in socks:
            s.close()
    ok = 0
    for recs in records:
        for req_line, resp_text, lat_ns in recs:
            resp = checker.response(req_line, resp_text)
            if resp is None or resp.get("status") != "ok":
                continue
            ok += 1
            lat_ms = lat_ns / 1e6
            m = resp.get("metrics", {})
            samples.append((lat_ms, lat_ms - m.get("elapsed_ms", 0.0),
                            m.get("new_states", 0), W.shape_key(req_line)))
    return ok, wall_ns / 1e9


def warm_cycle(laconrd, script, cycle, checker, samples):
    wd = D.fresh_dir("warm")
    try:
        d = D.Daemon(laconrd, wd, daemon_env("warm_mix",
                                             os.path.join(wd, "store")))
        try:
            sequential(d, script["setup"], checker)
            setup_s = time.perf_counter() - d.spawned
            ok, wall = timed_phase(d, script["cycles"][cycle], checker,
                                   samples)
            rss = d.rss_mb()
        finally:
            d.stop()
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    return setup_s, ok, wall, rss


def durable_cycle(laconrd, script, cycle, checker, samples, tmp,
                  store_copies=0):
    """Populate, SIGKILL, recover, then the timed phase. Returns the median
    recovery time, ok count, timed wall, daemon VmHWM, and copies of the
    SIGKILLed store for in-process replays.

    The store is recovered W.DURABLE_RECOVERIES times, each daemon but the
    last SIGKILLed right after set-up; set-up reads intern nothing, so every
    recovery loads the same store."""
    wd = D.fresh_dir("durable")
    store = os.path.join(wd, "store")
    try:
        d = D.Daemon(laconrd, wd, daemon_env("durable_mix", store))
        try:
            sequential(d, script["populate"], checker)
        finally:
            d.kill()
        copies = []
        for i in range(store_copies):
            dst = os.path.join(tmp, "store-copy-%d-%d" % (cycle, i))
            shutil.copytree(store, dst)
            copies.append(dst)
        setups = []
        for k in range(W.DURABLE_RECOVERIES):
            d = D.Daemon(laconrd, wd, daemon_env("durable_mix", store))
            try:
                sequential(d, script["setup"], checker)
                setups.append(time.perf_counter() - d.spawned)
                if k + 1 == W.DURABLE_RECOVERIES:
                    ok, wall = timed_phase(d, script["cycles"][cycle],
                                           checker, samples)
                    rss = d.rss_mb()
            finally:
                d.kill()
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    return statistics.median(setups), ok, wall, rss, copies


def request_workload(laconrd, perf, args, checker, tmp):
    warm = args.workload == "warm_mix"
    if warm:
        script = W.warm_script(args.seed, args.seconds, args.selftest)
    else:
        script = W.durable_script(args.seed, args.seconds, args.selftest)
    n_cycles = len(script["cycles"])
    if args.trace:
        n_cycles = 1          # the traced run replays cycle 0 in-process
    q = W.TAIL[args.workload]
    cycles, samples, copies = [], [], []
    for c in range(n_cycles):
        cycle_samples = []
        if warm:
            s, ok, wall, rss = warm_cycle(laconrd, script, c, checker,
                                          cycle_samples)
        else:
            s, ok, wall, rss, copies = durable_cycle(
                laconrd, script, c, checker, cycle_samples, tmp,
                store_copies=2 if args.trace else 0)
        lat = [x[0] for x in cycle_samples]
        cycles.append({"setup_s": s, "suite_s": wall,
                       "latency_p50_ms": pct(lat, 50),
                       "latency_tail_ms": pct(lat, q),
                       "throughput_rps": ok / wall, "peak_rss_mb": rss,
                       "requests": len(lat)})
        samples += cycle_samples
    info = {"cycles": cycles, "tail": "p%d" % q,
            "writes": sum(1 for x in samples if x[2] > 0),
            "class_p50_ms": class_medians(samples)}
    if not args.trace:
        # Each metric is the median over the run's cycles, so that one cycle
        # caught in a burst of host noise does not move it.
        return {k: statistics.median(c[k] for c in cycles)
                for k in cycles[0] if k != "requests"}, info
    layer = replay_layers(perf, script, warm, copies, checker, samples, tmp)
    return layer, info


def class_medians(samples):
    by = {}
    for lat, _, _, key in samples:
        by.setdefault(key, []).append(lat)
    return {k: round(statistics.median(v), 3) for k, v in sorted(by.items())}


# ------------------------------------------------------------ traced runs

def run_replay(perf, script, cycle, spans, env, tmp):
    path = os.path.join(tmp, "script-%d.json" % time.monotonic_ns())
    out = path + ".out"
    with open(path, "w") as f:
        json.dump({"setup": script["setup"],
                   "connections": script["cycles"][cycle],
                   "sessions": script["sessions"]}, f)
    subprocess.run([perf, "replay", path, str(int(spans)), out], env=env,
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    with open(out) as f:
        res = json.load(f)
    os.remove(path)
    os.remove(out)
    return res


def check_replay(res, script, cycle, checker):
    lines = [script["setup"]] + [
        [l for b in conn for l in b] for conn in script["cycles"][cycle]]
    for conn_lines, answers in zip(lines, res["answers"]):
        if len(conn_lines) != len(answers):
            raise WrongAnswer("replay answered %d of %d requests" %
                              (len(answers), len(conn_lines)))
        for l, a in zip(conn_lines, answers):
            checker.replay_answer(l, a)


def replay_layers(perf, script, warm, copies, checker, samples, tmp):
    results = []
    for spans in (False, True):
        if warm:
            env = D.lacon_env(LACON_THREADS=W.WARM_THREADS, LACON_WAL="off",
                              LACON_STORE_DIR=os.path.join(tmp, "unused"))
        else:
            env = D.lacon_env(LACON_THREADS=W.DURABLE_THREADS, LACON_WAL="on",
                              LACON_STORE_DIR=copies[int(spans)])
        res = run_replay(perf, script, 0, spans, env, tmp)
        check_replay(res, script, 0, checker)
        results.append(res)
    untraced, traced = results
    layer = span_layers(traced, script)
    outside = [x[1] for x in samples]
    layer["service.outside_execute_ms"] = pct(outside, 50)
    layer["service.outside_execute_ms.total"] = sum(outside)
    layer["trace.overhead_ratio"] = traced["timed_ns"] / untraced["timed_ns"]
    return layer


def self_times(spans):
    """Self time (ns) of every span: its duration minus its children's."""
    child = [0] * len(spans)
    # Parent indices are per thread; map (thread, local index) -> global.
    local, counts = [], {}
    for s in spans:
        k = counts.get(s["thread"], 0)
        local.append(k)
        counts[s["thread"]] = k + 1
    glob = {(s["thread"], local[i]): i for i, s in enumerate(spans)}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[glob[(s["thread"], s["parent"])]] += s["t1"] - s["t0"]
    return [s["t1"] - s["t0"] - child[i] for i, s in enumerate(spans)]


PER_OP = {
    # metric base name: (span name, unit scale from ns)
    "service.parse_us": ("service.parse", 1e-3),
    "service.session_us": ("service.session", 1e-3),
    "service.serialize_us": ("service.serialize", 1e-3),
    "store.commit_ms": ("store.commit", 1e-6),
    "engine.explore_ms": ("engine.explore", 1e-6),
    "engine.valence_ms": ("engine.valence", 1e-6),
    "relation.similarity_ms": ("relation.similarity", 1e-6),
    "relation.diameter_ms": ("relation.diameter", 1e-6),
}


def span_layers(res, script):
    spans = res["spans"]
    names = res["probe_names"]
    P = {n: i for i, n in enumerate(names)}
    selfs = self_times(spans)
    timed = [i for i, s in enumerate(spans) if s["thread"] > 0]
    setup = [i for i, s in enumerate(spans) if s["thread"] == 0]

    def delta(idx, name, span_name="service.request"):
        return sum(spans[i]["d"][P[name]] for i in idx
                   if spans[i]["name"] == span_name)

    out = {}
    for metric, (span_name, scale) in PER_OP.items():
        vals = [selfs[i] * scale for i in timed
                if spans[i]["name"] == span_name]
        out[metric] = pct(vals, 50)
        out[metric + ".total"] = sum(vals)

    # Requests of the timed phase, and which of them interned new states.
    answers = [a for conn in res["answers"][1:] for a in conn]
    new_by_req = {a["req"]: a["new_states"] for a in answers}
    requests = [i for i in timed if spans[i]["name"] == "service.request"]
    n_req = max(1, len(requests))
    writes = sum(1 for a in answers if a["new_states"] > 0)

    # store.commit spans are per batch and carry the batch's first request
    # id (lacon_perf numbers connection c's requests from (c+1) * 10^7); a
    # batch is a no-op commit when none of its requests interned.
    batch_new = {}
    for c, conn in enumerate(script["cycles"][0]):
        rid = (c + 1) * 10_000_000
        for b in conn:
            batch_new[rid] = sum(new_by_req.get(rid + k, 0)
                                 for k in range(len(b)))
            rid += len(b)
    noop = [selfs[i] * 1e-6 for i in timed
            if spans[i]["name"] == "store.commit" and
            batch_new.get(spans[i]["req"], 1) == 0]
    out["store.commit_noop_ms"] = pct(noop, 50)
    out["store.commit_noop_ms.total"] = sum(noop)

    commits = [i for i in timed if spans[i]["name"] == "store.commit"]
    waits = sum(spans[i]["d"][P["service.commit_waits"]] for i in commits)
    fsyncs = sum(spans[i]["d"][P["wal.group_commits"]] for i in commits)
    append_ns = sum(spans[i]["d"][P["wal.append_time"]] for i in commits)
    wal_bytes = sum(spans[i]["d"][P["wal.bytes_appended"]] for i in commits)
    out["store.commit_waits_per_req"] = waits / n_req
    out["store.reqs_per_fsync"] = n_req / fsyncs if fsyncs else 0.0
    out["store.wal_append_ms"] = append_ns * 1e-6 / fsyncs if fsyncs else 0.0
    out["store.wal_append_ms.total"] = append_ns * 1e-6
    out["store.wal_bytes_per_write"] = wal_bytes / writes if writes else 0.0
    out["store.compactions"] = sum(spans[i]["d"][P["wal.compactions"]]
                                   for i in commits)

    loads = [i for i in setup if spans[i]["name"] == "store.ensure_loaded"]
    load_ms = [spans[i]["d"][P["store.load_time"]] * 1e-6 for i in loads]
    replay_ms = [spans[i]["d"][P["wal.replay_time"]] * 1e-6 for i in loads]
    busy = [i for i in range(len(load_ms)) if load_ms[i] + replay_ms[i] > 0]
    out["store.load_ms"] = pct([load_ms[i] for i in busy], 50)
    out["store.load_ms.total"] = sum(load_ms)
    out["store.replay_ms"] = pct([replay_ms[i] for i in busy], 50)
    out["store.replay_ms.total"] = sum(replay_ms)
    mapped = sum(spans[i]["d"][P["arena.state_mapped"]] for i in loads)
    restored = sum(spans[i]["d"][P["arena.state_restored"]] for i in loads)
    out["store.mapped_ratio"] = mapped / restored if restored else 0.0

    explore = [i for i, s in enumerate(spans) if s["name"] == "engine.explore"]
    misses = sum(spans[i]["d"][P["arena.state_misses"]] for i in explore)
    explore_s = sum(selfs[i] for i in explore) / 1e9
    out["engine.explore_states_per_s"] = misses / explore_s if explore_s else 0

    val = [i for i in timed if spans[i]["name"] == "engine.valence"]
    evals = sum(max(0, spans[i]["extra"]) for i in val)
    frontier = sum(a["result"]["frontier"] for a in answers
                   if a["result"] and "bivalent" in a["result"])
    out["engine.valence_evals_per_state"] = evals / frontier if frontier else 0

    reqs = delta(timed, "lemmas.hits"), delta(timed, "lemmas.misses")
    out["engine.lemma_hit_ratio"] = reqs[0] / sum(reqs) if sum(reqs) else 0.0
    idx = (delta(timed, "relation.index_confirmed"),
           delta(timed, "relation.index_candidates"))
    out["relation.index_confirm_ratio"] = idx[0] / idx[1] if idx[1] else 0.0
    hits = delta(timed, "arena.state_hits"), delta(timed, "arena.state_misses")
    out["core.state_hit_ratio"] = hits[0] / sum(hits) if sum(hits) else 0.0
    out["core.shard_waits_per_op"] = (
        delta(timed, "arena.state_shard_waits") +
        delta(timed, "arena.view_shard_waits")) / n_req
    out["core.states"] = res["states"]
    out["core.views"] = res["views"]
    work = [i for i in timed
            if spans[i]["name"] in ("engine.explore", "engine.valence")]
    wall = sum(spans[i]["t1"] - spans[i]["t0"] for i in work)
    out["runtime.cpu_per_wall"] = (sum(spans[i]["cpu"] for i in work) / wall
                                   if wall else 0.0)
    out["runtime.steals_per_op"] = delta(timed, "pool.steals") / n_req
    return out


# The Stats timers that stand in for the engine/relation spans on verdicts,
# whose check_* calls run explore, valence and similarity internally.
VERDICT_TIMERS = {
    "engine.explore_ms": ["explore.expand_time"],
    "engine.valence_ms": ["valence.classify_time"],
    "relation.similarity_ms": ["relation.pair_sweep_time",
                               "relation.index_time"],
    "relation.diameter_ms": ["relation.diameter_time"],
}


def verdict_layers(res):
    spans = res["spans"]
    P = {n: i for i, n in enumerate(res["probe_names"])}
    out = {}
    for s, r in zip(spans, res["rows"]):
        out["analysis.%s.%s_s" % (r["model"], r["check"])] = (
            (s["t1"] - s["t0"]) / 1e9)
    total = lambda name: sum(s["d"][P[name]] for s in spans)
    for metric, timers in VERDICT_TIMERS.items():
        per_row = [sum(s["d"][P[t]] for t in timers) * 1e-6 for s in spans]
        out[metric] = pct([v for v in per_row if v > 0], 50)
        out[metric + ".total"] = sum(per_row)
    n_rows = max(1, len(spans))
    explore_s = total("explore.expand_time") / 1e9
    out["engine.explore_states_per_s"] = (
        total("arena.state_misses") / explore_s if explore_s else 0.0)
    lh = total("lemmas.hits"), total("lemmas.misses")
    out["engine.lemma_hit_ratio"] = lh[0] / sum(lh) if sum(lh) else 0.0
    ic = total("relation.index_confirmed"), total("relation.index_candidates")
    out["relation.index_confirm_ratio"] = ic[0] / ic[1] if ic[1] else 0.0
    sh = total("arena.state_hits"), total("arena.state_misses")
    out["core.state_hit_ratio"] = sh[0] / sum(sh) if sum(sh) else 0.0
    out["core.shard_waits_per_op"] = (total("arena.state_shard_waits") +
                                      total("arena.view_shard_waits")) / n_rows
    out["core.states"] = res["states"]
    out["core.views"] = res["views"]
    out["runtime.cpu_per_wall"] = res["cpu_ns"] / res["suite_ns"]
    out["runtime.steals_per_op"] = total("pool.steals") / n_rows
    return out


# ---------------------------------------------------------------- output

def metric_specs(trace):
    with open(BENCHMARK_PATH) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def host_info():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for l in f:
                if l.startswith("model name"):
                    model = l.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def knobs_for(workload):
    if workload == "verdicts":
        env = D.lacon_env(LACON_THREADS=4)
    else:
        env = daemon_env(workload, "<fresh per run>")
    return {k: v for k, v in sorted(env.items()) if k.startswith("LACON_")}


def run(args):
    laconrd, perf = D.build()
    checker = Checker(load_expected(args.expected))
    tmp = D.fresh_dir("tmp")
    try:
        if args.workload == "verdicts":
            values, info = verdicts(perf, args, checker, tmp)
        else:
            values, info = request_workload(laconrd, perf, args, checker, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = {}
    for spec in metric_specs(args.trace):
        metrics[spec["name"]] = {"value": float(values.get(spec["name"], 0.0)),
                                 "unit": spec["unit"]}
    info.update(host_info())
    info["knobs"] = knobs_for(args.workload)
    info["workload"] = args.workload
    info["seed"] = args.seed
    return {"correct": not checker.wrong, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}, info, checker


def record():
    """Re-records expected.json: every shape in a fresh daemon of its own,
    and both verdict instances."""
    laconrd, perf = D.build()
    tmp = D.fresh_dir("record")
    shapes = {}
    try:
        for key in W.all_shapes() + W.all_shapes(selftest=True):
            if key in shapes:
                continue
            wd = D.fresh_dir("rec")
            d = D.Daemon(laconrd, wd, daemon_env("warm_mix",
                                                 os.path.join(wd, "store")))
            try:
                sock = d.connect()
                resp = json.loads(D.request_sequential(sock, [key])[0])
                sock.close()
            finally:
                d.stop()
                shutil.rmtree(wd, ignore_errors=True)
            if resp.get("status") != "ok":
                raise WrongAnswer("recording %s: %r" % (key, resp))
            shapes[key] = resp["result"]
            D.log("recorded %s" % key)
        verdict_rows = {}
        for inst in (W.VERDICT_INSTANCE, W.SELFTEST_VERDICT_INSTANCE):
            res = run_suite(perf, inst, False, tmp)
            verdict_rows[" ".join(map(str, inst))] = [
                [r["model"], r["check"], r["ok"], r["checked"]]
                for r in res["rows"]]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(EXPECTED_PATH, "w") as f:
        json.dump({"shapes": dict(sorted(shapes.items())),
                   "verdicts": verdict_rows}, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["verdicts", "warm_mix",
                                          "durable_mix"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="tiny scripts and verdicts at n=2 (see selftest.py)")
    p.add_argument("--expected", default=EXPECTED_PATH,
                   help="recorded answers to check against")
    p.add_argument("--record", action="store_true",
                   help="re-record expected.json from this checkout")
    args = p.parse_args(argv)
    os.chdir(os.path.dirname(HERE))
    if args.record:
        record()
        return 0
    if not args.workload:
        p.error("--workload is required")
    result, info, checker = run(args)
    print(json.dumps({"perfbench_info": info}, sort_keys=True))
    print(json.dumps(result))
    if checker.wrong:
        D.log("perfbench: %d wrong answer(s); first: %r" %
              (len(checker.wrong), checker.wrong[0]))
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError, RuntimeError,
            WrongAnswer) as e:
        D.log("perfbench: %s" % e)
        sys.exit(1)
