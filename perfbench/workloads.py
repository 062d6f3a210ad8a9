"""The three workloads: their request catalogs and seeded scripts.

A script is generated whole from the seed before any daemon starts; the
daemon only ever sees the generated lines. Catalog weights are exact counts
per cycle (the seed only orders them), so every seed puts the same number of
requests in each class and the percentile ranks stay where the weights put
them (README.md, "Catalog design").
"""
import json
import random

VERDICT_INSTANCE = (3, 1, 2, 3)   # lacon_check's default n, t, depth, horizon
SELFTEST_VERDICT_INSTANCE = (2, 1, 2, 3)

# The tail percentile of each workload: p99 where a cycle holds at least
# 1000 requests, p90 otherwise (durable_mix: about 600 requests per cycle,
# bounded by its write pool; verdicts: its 10 checks).
TAIL = {"verdicts": 90, "warm_mix": 99, "durable_mix": 90}


def line(model, n, query, depth, t=1, horizon=None):
    req = {"model": model, "n": n, "t": t, "query": query, "depth": depth}
    if horizon is not None:
        req["horizon"] = horizon
    return json.dumps(req, sort_keys=True, separators=(",", ":"))


def shape_key(request_line):
    """The id-free canonical form of a request, as keyed in expected.json."""
    req = json.loads(request_line)
    req.pop("id", None)
    return json.dumps(req, sort_keys=True, separators=(",", ":"))


def session_key(request_line):
    req = json.loads(request_line)
    return (req["model"], req["n"], req.get("t", 1))


# --------------------------------------------------------------- warm_mix
#
# Classes in order of warm cost at LACON_THREADS=2 with both connections
# busy (in brackets, one run's class p50 on a 4-core Xeon; they scale with
# the host's speed, their order does not). The 30-weight sync valence
# class holds ranks 35..65, so p50 sits in its middle; the 7-weight mobile
# n=4 similarity class holds ranks 93..100, so p99 sits inside it. No class
# costs under ~1 ms warm.
WARM_CATALOG = [
    (line("msgpass", 3, "similarity", 2), 9),          # [1.6 ms]
    (line("sharedmem", 3, "valence", 3), 9),           # [3.7 ms]
    (line("mobile", 4, "valence", 3), 9),              # [4.8 ms]
    (line("sync", 4, "diameter", 2, t=2), 8),          # [6.2 ms]
    (line("sync", 5, "valence", 3, t=2), 30),          # [8.6 ms]  <- p50
    (line("mobile", 5, "similarity", 2), 14),          # [13 ms]
    (line("sync", 5, "layers", 4, t=2), 14),           # [16 ms]
    (line("mobile", 4, "similarity", 3), 7),           # [29 ms]   <- p99
]
WARM_CONNECTIONS = 2
WARM_THREADS = 2
WARM_CYCLES = 3
# Requests per connection per second of --seconds. Fixes each cycle's work:
# at --seconds 10 a cycle holds 1000 requests, enough for its p99 to have ten
# samples beyond it.
WARM_RATE = 150


# ------------------------------------------------------------ durable_mix
#
# Two single-request connections read the p50 class, mobile n=4 valence: a
# warm read of ~3 ms of analysis plus the commit path, on a session only
# these two share, so they group-commit with each other and with nobody else.
# Two connections pipeline batches of 4 lines, each batch one write plus one
# read of each DURABLE_BATCH_READS shape, in seeded order; every batch thus
# commits the same sessions and batches differ only by their write. The
# batches hold the ranks above ~65 and p90 sits inside them. Writes are the
# bounded chains below, one chain per session, each chain owned by one
# connection and issued in increasing depth, so every write interns exactly
# its new level whatever the interleaving.
DURABLE_SINGLE_READ = line("mobile", 4, "valence", 3)
DURABLE_BATCH_READS = [
    line("sharedmem", 3, "valence", 3),
    line("msgpass", 3, "similarity", 2),
    line("mobile", 5, "valence", 2),
]
# (model, n, t, first depth, last depth): layers writes at depths
# first..last; depth first-1 is populated during set-up.
DURABLE_WRITE_CHAINS = [
    [("sync", 4, 1, 3, 12), ("sync", 5, 1, 3, 8), ("mobile", 2, 1, 3, 8),
     ("msgpass", 2, 1, 3, 6)],
    [("sync", 3, 2, 4, 11), ("sync", 3, 1, 3, 12), ("sharedmem", 2, 1, 3, 6),
     ("sync", 4, 2, 3, 4)],
]
# Single-connection requests per batched-connection request: the single
# reads cost about half a batched request's share of its batch, so twice as
# many of them keep all four connections busy for about the same time.
DURABLE_SINGLE_RATIO = 2
DURABLE_CONNECTIONS = 4
DURABLE_THREADS = 1
# --seconds / DURABLE_CYCLE_S gives the number of cycles (at least 3, so
# set-up has a median): 6 at --seconds 10, about 25 s of timed phase on a
# 4-core Xeon. A cycle's p90 varies by ~10 % from cycle to cycle, so the
# run's median needs several.
DURABLE_CYCLE_S = 1.7
DURABLE_MIN_CYCLES = 3
# Recoveries of each cycle's SIGKILLed store (set-up is their median).
DURABLE_RECOVERIES = 3


def _exact_draws(catalog, count, rng):
    """`count` lines in the catalog's exact proportions, seeded order."""
    total = sum(w for _, w in catalog)
    out = []
    for shape, w in catalog:
        out += [shape] * (count * w // total)
    while len(out) < count:       # rounding remainder: heaviest classes first
        for shape, _ in sorted(catalog, key=lambda c: -c[1]):
            if len(out) < count:
                out.append(shape)
    rng.shuffle(out)
    return out


def with_ids(batches, first_id):
    out, i = [], first_id
    for batch in batches:
        b = []
        for l in batch:
            req = json.loads(l)
            req["id"] = i
            b.append(json.dumps(req, separators=(",", ":")))
            i += 1
        out.append(b)
    return out


def warm_script(seed, seconds, selftest=False):
    """Set-up lines plus, per cycle, one list of batches per connection."""
    rng = random.Random("warm_mix/%d" % seed)
    catalog = WARM_CATALOG
    per_conn = 40 if selftest else max(
        1, round(seconds * WARM_RATE / WARM_CYCLES))
    cycles = []
    for _ in range(WARM_CYCLES):
        conns = []
        for c in range(WARM_CONNECTIONS):
            draws = _exact_draws(catalog, per_conn, rng)
            conns.append(with_ids([[l] for l in draws], (c + 1) * 1_000_000))
        cycles.append(conns)
    setup = [l for l, _ in catalog]
    return {"setup": setup, "cycles": cycles, "sessions": _sessions(setup)}


def durable_writes(selftest=False):
    """Per batched connection, its write lines in issue order."""
    out = []
    for chains in DURABLE_WRITE_CHAINS:
        lines = []
        for model, n, t, first, last in chains:
            if selftest:
                last = min(last, first + 1)
            lines.append([line(model, n, "layers", d, t=t)
                          for d in range(first, last + 1)])
        out.append(lines)
    return out


def durable_populate(selftest=False):
    """The sequential populate script: every read shape, every chain base."""
    reads = [DURABLE_SINGLE_READ] + DURABLE_BATCH_READS
    bases = [line(model, n, "layers", first - 1, t=t)
             for chains in DURABLE_WRITE_CHAINS
             for model, n, t, first, _ in chains]
    return list(dict.fromkeys(reads + bases))


def durable_cycles(seconds):
    return max(DURABLE_MIN_CYCLES, round(seconds / DURABLE_CYCLE_S))


def durable_script(seed, seconds, selftest=False):
    rng = random.Random("durable_mix/%d" % seed)
    populate = durable_populate(selftest)
    writes = durable_writes(selftest)
    cycles = []
    for _ in range(1 if selftest else durable_cycles(seconds)):
        conns = [None] * DURABLE_CONNECTIONS
        batch_lines = []
        for c, chains in enumerate(writes):
            # Interleave this connection's chains in a seeded order that
            # keeps each chain's depths increasing.
            order = [i for i, ch in enumerate(chains) for _ in ch]
            rng.shuffle(order)
            pos = [0] * len(chains)
            seq = []
            for i in order:
                seq.append(chains[i][pos[i]])
                pos[i] += 1
            batches = []
            for w in seq:
                b = [w] + DURABLE_BATCH_READS
                rng.shuffle(b)
                batches.append(b)
            batch_lines.append(batches)
        per_single = sum(len(b) for b in batch_lines[0]) * DURABLE_SINGLE_RATIO
        for c in range(2):
            conns[c] = with_ids([[DURABLE_SINGLE_READ]] * per_single,
                                (c + 1) * 1_000_000)
        for c in range(2):
            conns[2 + c] = with_ids(batch_lines[c], (c + 3) * 1_000_000)
        cycles.append(conns)
    # After recovery, one request per session brings it back ("every session
    # has answered once"): the first populate line of each session.
    sessions = _sessions(populate)
    return {"populate": populate, "setup": sessions, "cycles": cycles,
            "sessions": sessions}


def _sessions(lines):
    """The first line of each session, in order."""
    out, seen = [], set()
    for l in lines:
        if session_key(l) not in seen:
            seen.add(session_key(l))
            out.append(l)
    return out


def all_shapes(selftest=False):
    """Every request shape a workload may send (for recording answers)."""
    shapes = [l for l, _ in WARM_CATALOG]
    shapes += durable_populate(selftest)
    for chains in durable_writes(selftest):
        for ch in chains:
            shapes += ch
    return list(dict.fromkeys(shape_key(s) for s in shapes))
