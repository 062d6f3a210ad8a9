"""Build the benchmark binaries, run laconrd children, and drive them.

Everything here stays inside the checkout: binaries go to .bench_build/,
sockets and stores to a per-run directory under .bench_build/runs/.
"""
import os
import selectors
import signal
import socket
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUNS_DIR = os.path.join(".bench_build", "runs")

# Every LACON_* knob the program reads, pinned. Workloads override
# LACON_THREADS, LACON_WAL and LACON_STORE_DIR; LACON_FAULT_SEED,
# LACON_FAULT_RATE, LACON_METRICS_FILE and LACON_TRACE_FILE stay unset.
PINNED_ENV = {
    "LACON_STORE": "off",
    "LACON_WAL": "off",
    "LACON_WAL_COMPACT": "8",
    "LACON_SYMMETRY": "off",
    "LACON_TRACE": "off",
    "LACON_SIMILARITY": "indexed",
    "LACON_SIMD": "auto",
    "LACON_MMAP": "on",
    "LACON_ARENA_SHARDS": "64",
}
UNSET_ENV = ("LACON_FAULT_SEED", "LACON_FAULT_RATE", "LACON_METRICS_FILE",
             "LACON_TRACE_FILE", "LACON_TRACE_CAT")


def lacon_env(**knobs):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LACON_")}
    env.update(PINNED_ENV)
    env.update({k: str(v) for k, v in knobs.items()})
    for k in UNSET_ENV:
        env.pop(k, None)
    return env


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds laconrd and lacon_perf; returns their paths.

    Raises CalledProcessError when the sources are missing or do not build.
    """
    subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j4", "--target",
                    "laconrd", "lacon_perf"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(BUILD_DIR, "laconrd"),
            os.path.join(BUILD_DIR, "lacon_perf"))


def fresh_dir(tag):
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(RUNS_DIR, "%s-%d-%d" % (tag, os.getpid(),
                                                time.monotonic_ns()))
    os.makedirs(path)
    return path


def vm_hwm_mb(pid):
    """VmHWM of a live process, in MiB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


class Daemon:
    """One laconrd child on a relative socket path inside the checkout.

    The path is relative so that it fits sun_path however deep the
    checkout sits.
    """

    def __init__(self, binary, workdir, env):
        self.sock_path = os.path.join(workdir, "d.sock")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--socket", self.sock_path], env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=open(os.path.join(workdir, "laconrd.log"), "ab"))

    def connect(self, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("laconrd exited with %d" %
                                   self.proc.returncode)
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                return s
            except OSError:
                s.close()
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)

    def rss_mb(self):
        return vm_hwm_mb(self.proc.pid)

    def kill(self):
        """SIGKILL, as a crash: nothing is flushed beyond what was fsync'd."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
        self.proc.wait()


class Conn:
    """Client side of one connection running a closed loop over `batches`.

    Each batch is a list of request lines, sent together; the next batch is
    sent only once every response of the current one has arrived.
    """

    def __init__(self, sock, batches):
        self.sock = sock
        self.sock.setblocking(False)
        self.batches = batches
        self.next_batch = 0
        self.pending = []        # lines of the batch in flight
        self.sent_at = 0
        self.buf = b""
        self.out = b""
        self.records = []        # (line, response_text, latency_ns)
        self.done = False

    def start_batch(self):
        if self.next_batch >= len(self.batches):
            self.done = True
            return
        self.pending = list(self.batches[self.next_batch])
        self.next_batch += 1
        self.out = "".join(l + "\n" for l in self.pending).encode()
        self.sent_at = time.perf_counter_ns()

    def on_writable(self):
        n = self.sock.send(self.out)
        self.out = self.out[n:]

    def on_readable(self):
        data = self.sock.recv(1 << 20)
        if not data:
            raise RuntimeError("laconrd closed a connection")
        self.buf += data
        while b"\n" in self.buf:
            line, self.buf = self.buf.split(b"\n", 1)
            now = time.perf_counter_ns()
            self.records.append((self.pending.pop(0), line.decode(),
                                 now - self.sent_at))
        if not self.pending:
            self.start_batch()


def run_closed_loop(socks, scripts):
    """Drives one closed-loop connection per script, all from this thread.

    `scripts[i]` is a list of batches (lists of request lines); each
    connection runs its script to the end. Returns the per-connection
    records and the wall time of the whole phase.
    """
    start = time.perf_counter_ns()
    conns = [Conn(s, b) for s, b in zip(socks, scripts)]
    sel = selectors.DefaultSelector()
    for c in conns:
        c.start_batch()
        if not c.done:
            sel.register(c.sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
                         c)
    live = sum(not c.done for c in conns)
    while live:
        for key, events in sel.select(timeout=60):
            c = key.data
            if events & selectors.EVENT_WRITE and c.out:
                c.on_writable()
            if events & selectors.EVENT_READ:
                c.on_readable()
            if c.done:
                sel.unregister(c.sock)
                live -= 1
            else:
                sel.modify(c.sock, selectors.EVENT_READ |
                           (selectors.EVENT_WRITE if c.out else 0), c)
    sel.close()
    return [c.records for c in conns], time.perf_counter_ns() - start


def request_sequential(sock, lines):
    """Sends `lines` one at a time; returns the responses."""
    recs, _ = run_closed_loop([sock], [[[l] for l in lines]])
    return [r[1] for r in recs[0]]

