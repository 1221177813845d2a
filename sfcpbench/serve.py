"""The serving workload: an open loop against ``repro-serve`` with 2 process replicas.

``serve_fleet`` boots ``python -m repro.serving --http --replicas 2
--processes --workers 1 --batch-delay-ms 10`` and offers it a seeded
Poisson arrival schedule at 30 requests/s, from one process over one framed connection with
``?wait=push`` (one sender, the client's one reader thread).  Requests
are drawn from a seeded pool of ``mixed``, ``tree_heavy`` and
``permutation`` instances of 256-2048 nodes, so the solve kernels stay
small while the wire, queue, batcher, replica hop and supervisor do real
work.

Batches form through the batch window, not through load.  The two
batching keys (audited or not) each arrive at 15/s; with the server's
default 2 ms window only about 2 % of the requests shared a batch at
30/s and about 7 % at 60/s, and at 60/s the tail already tracked the
host's CPU-steal share (p99 66-182 ms over ten runs).  At 80/s the
client, the front end and both replicas saturate a 2-core host.  With a
10 ms window at 30/s about 28 % of the requests share a batch, the
median latency of each quarter of a boot's segment stays flat (no
backlog grows), and p99 stays near 50 ms.  One worker thread per replica
process: on a 2-core host more threads only contend for each process's
interpreter lock, which doubled the run-to-run spread of the tail.

Each request is timed from the instant it was due, so a stalled sender
charges its wait to the requests behind it.  Every DONE response is
compared with a direct ``coarsest_partition`` of the same instance,
computed before the server boots.
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from common import (
    SetupError,
    StealMeter,
    child_env,
    median,
    note,
    percentile,
    source_root,
    vm_hwm_mb,
)

#: Offered arrival rate (requests per second) of the Poisson schedule.
RATE = 30.0
#: How long the server holds a partially filled batch open (its default is 2).
BATCH_DELAY_MS = 10
#: Distinct instances the requests are drawn from.
POOL = 48
MIN_N, MAX_N = 256, 2048
#: Server boots per run: each is one ``setup_s`` sample and serves a third
#: of the schedule.
BOOTS = 3
#: Verified requests that end a boot's set-up.
WARMUPS = 4
#: How long to wait for the last responses after the schedule ends.
DRAIN_SECONDS = 30.0
BOOT_TIMEOUT = 60.0

Instance = Tuple[np.ndarray, np.ndarray]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _mixed(rng: np.random.Generator, n: int) -> Instance:
    return rng.integers(0, n, n, dtype=np.int64), rng.integers(0, 3, n, dtype=np.int64)


def _permutation(rng: np.random.Generator, n: int) -> Instance:
    return rng.permutation(n).astype(np.int64), rng.integers(0, 2, n, dtype=np.int64)


def _tree_heavy(rng: np.random.Generator, n: int) -> Instance:
    """2% of the nodes on one cycle; the rest hang off it as chains and bushes."""
    n_cycle = max(1, round(n * 0.02))
    nodes = np.arange(n, dtype=np.int64)
    earlier = (rng.random(n) * nodes).astype(np.int64)
    chain = (rng.random(n) < 0.5) & (nodes > n_cycle)
    function = np.where(chain, nodes - 1, earlier)
    function[:n_cycle] = (nodes[:n_cycle] + 1) % n_cycle
    # shuffle node identities so array order carries no structure
    new_id = rng.permutation(n).astype(np.int64)
    shuffled = np.empty(n, dtype=np.int64)
    shuffled[new_id] = new_id[function]
    labels = np.empty(n, dtype=np.int64)
    labels[new_id] = rng.integers(0, 2, n, dtype=np.int64)
    return shuffled, labels


def build_pool(seed: int) -> List[Instance]:
    """``POOL`` instances, sizes log-uniform in [MIN_N, MAX_N].

    Each shape gets one size from each of ``POOL / 3`` equal strata of
    the log-size range, at a seeded place within the stratum.  The tail
    latency follows the largest instances, so a pool drawn freely would
    move ``lat_p99_ms`` with the seed; stratified, every seed offers the
    same mix of sizes while the graphs and labels stay the seed's own.
    """
    rng = np.random.default_rng([seed, 1])
    shapes = (_mixed, _tree_heavy, _permutation)
    per_shape = POOL // len(shapes)
    low, high = np.log(MIN_N), np.log(MAX_N + 1)
    pool = []
    for shape in shapes:
        strata = (np.arange(per_shape) + rng.random(per_shape)) / per_shape
        sizes = np.exp(low + strata * (high - low)).astype(int)
        pool.extend(shape(rng, int(n)) for n in sizes)
    return pool


def build_schedule(seed: int, seconds: float) -> Tuple[np.ndarray, np.ndarray]:
    """Due offsets (seconds from start) and pool indexes of every request.

    A Poisson process conditioned on its count: ``RATE * seconds``
    arrival instants drawn uniformly over the run and sorted, so every
    run of the same length sends the same number of requests.  Every
    pool entry is asked for equally often (give or take one), in a seeded
    order: the tail follows the largest instances, and drawn freely their
    share of the requests moved by a fifth from seed to seed.
    """
    rng = np.random.default_rng([seed, 2])
    total = int(round(RATE * seconds))
    due = np.sort(rng.uniform(0.0, seconds, total))
    return due, rng.permutation(np.resize(rng.permutation(POOL), total))


# ----------------------------------------------------------------------
# one booted server
# ----------------------------------------------------------------------
class Server:
    """``repro-serve --http --replicas 2 --processes`` plus one framed client."""

    def __init__(self, workdir: str, index: int) -> None:
        self.port_file = os.path.join(workdir, f"port-{index}")
        self.log = open(os.path.join(workdir, f"server-{index}.log"), "wb")
        env = child_env()
        # the supervisor's replica port files go to the run's own directory
        env["TMPDIR"] = workdir
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serving", "--http", "--port", "0",
             "--port-file", self.port_file, "--replicas", "2", "--processes", "--workers", "1",
             "--batch-delay-ms", str(BATCH_DELAY_MS)],
            cwd=source_root(), env=env, stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.client = None

    def connect(self) -> None:
        from repro.serving.framing import FramedServiceClient

        deadline = time.perf_counter() + BOOT_TIMEOUT
        port = ""
        while not port:
            if self.proc.poll() is not None:
                raise SetupError(f"server exited with {self.proc.returncode} before listening")
            if time.perf_counter() > deadline:
                raise SetupError("server did not announce its port in time")
            if os.path.exists(self.port_file):
                with open(self.port_file, "r", encoding="utf-8") as fh:
                    announced = fh.read()
                # the server writes "<port>\n" once it listens
                port = announced.strip() if announced.endswith("\n") else ""
            if not port:
                time.sleep(0.005)
        self.client = FramedServiceClient(f"framed://127.0.0.1:{port}", timeout=30.0)
        while True:
            status, _, health = self.client.request("GET", "/healthz")
            replicas = health.get("replicas", []) if isinstance(health, dict) else []
            if status == 200 and len(replicas) == 2 and all(r.get("healthy") for r in replicas):
                return
            if time.perf_counter() > deadline:
                raise SetupError(f"replicas not healthy in time: {health}")
            time.sleep(0.005)

    def replica_pids(self) -> List[int]:
        _, _, health = self.client.request("GET", "/healthz")
        return [int(r["pid"]) for r in health["replicas"]]

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()


def _document(instance: Instance, audit: bool) -> Dict[str, object]:
    function, labels = instance
    return {"schema": "repro.serving.wire", "version": 1, "audit": audit,
            "function": function.tolist(), "labels": labels.tolist()}


class Tally:
    """Outcomes of a set of requests, filled in by the client's reader thread.

    Each push is verified on arrival and only scalars are kept: holding
    a thousand decoded label lists would make the client's garbage
    collector stall the sender.  With ``decode`` set, odd-indexed
    responses are also decoded into a ``SolveResponse``, as a client
    reading the server's per-request fields would; even-indexed ones are
    only verified and timestamped.
    """

    def __init__(self, expected: List[np.ndarray], decode: bool = False) -> None:
        total = len(expected)
        self.expected = expected
        self.decode = decode
        self.done_at = np.full(total, np.nan)
        self.done = np.zeros(total, dtype=bool)
        self.ok = np.zeros(total, dtype=bool)
        # the server's per-request fields, where decoded
        self.decoded = np.zeros(total, dtype=bool)
        self.queued_s = np.full(total, np.nan)
        self.server_s = np.full(total, np.nan)
        self.batch_size = np.zeros(total, dtype=np.int64)
        self._remaining = total
        self._lock = threading.Lock()
        self.finished = threading.Event()
        if total == 0:
            self.finished.set()

    def callback(self, index: int):
        from repro.serving.wire import decode_response

        decode = self.decode and index % 2 == 1

        def on_push(status: int, body) -> None:
            self.done_at[index] = time.perf_counter()
            if isinstance(body, dict):
                self.done[index] = body.get("status") == "done"
                self.ok[index] = _verified(body, self.expected[index])
                if decode:
                    response = decode_response(body)
                    self.queued_s[index] = response.queued_seconds
                    self.server_s[index] = response.latency_seconds
                    self.batch_size[index] = response.batch_size
                    self.decoded[index] = True
            self.settle()
        return on_push

    def settle(self) -> None:
        """One request is finished (pushed, or refused at admission)."""
        with self._lock:
            self._remaining -= 1
            if self._remaining == 0:
                self.finished.set()


def _verified(body: dict, reference: np.ndarray) -> bool:
    labels = body.get("labels")
    if body.get("status") != "done" or labels is None:
        return False
    return np.array_equal(labels, reference) and body.get("num_blocks") == int(reference.max()) + 1


def _warm_up(server: Server, docs: List[dict], references: List[np.ndarray]) -> int:
    """Send ``WARMUPS`` requests and wait for them; returns how many verified."""
    tally = Tally(references[:WARMUPS])
    for i in range(WARMUPS):
        server.client.submit_push(docs[i], tally.callback(i))
    tally.finished.wait(BOOT_TIMEOUT)
    return int(tally.ok.sum())


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _offer(server: Server, docs: List[dict], due: np.ndarray, pick: np.ndarray,
           tally: "Tally") -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Send one segment of the schedule; returns due, sent and acked instants, refusals."""
    from repro.errors import ReproError

    total = len(due)
    sent_at = np.full(total, np.nan)
    acked_at = np.full(total, np.nan)
    refused = 0
    origin = time.perf_counter() + 0.05
    for i in range(total):
        wait = origin + due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent_at[i] = time.perf_counter()
        try:
            server.client.submit_push(docs[pick[i]], tally.callback(i))
        except (ReproError, ConnectionError, OSError):
            refused += 1
            tally.settle()
        acked_at[i] = time.perf_counter()
    tally.finished.wait(DRAIN_SECONDS)
    return origin + due, sent_at, acked_at, refused


def run(
    seed: int, seconds: float, trace: bool, slo_ms: float
) -> Tuple[bool, int, int, Dict[str, tuple]]:
    from repro import coarsest_partition

    pool = build_pool(seed)
    # Odd pool entries ask for the no-audit fast path.  Requests batch only
    # with their own audit flag, and the fleet routes each batching key to
    # its own replica, so both replicas serve.
    docs = [_document(instance, audit=i % 2 == 0) for i, instance in enumerate(pool)]
    references = [coarsest_partition(f, b).labels for f, b in pool]
    due, pick = build_schedule(seed, seconds)
    # Latency differs more between server boots than within one, so each
    # boot serves one consecutive segment of the schedule.
    segment = np.minimum((due * BOOTS / seconds).astype(int), BOOTS - 1)
    quarter = np.minimum(((due * BOOTS / seconds) % 1.0 * 4).astype(int), 3)
    # the pool and its references live for the whole run: keep them out
    # of the collector's full passes
    gc.freeze()

    workdir = tempfile.mkdtemp(prefix=".sfcpbench-", dir=source_root())
    setup_times: List[float] = []
    warm_failed = refused = 0
    rss: List[float] = []
    scrapes: List[dict] = []
    parts: List[Tuple[np.ndarray, ...]] = []
    tallies: List[Tally] = []
    steal = StealMeter()
    try:
        for index in range(BOOTS):
            start = time.perf_counter()
            server = Server(workdir, index)
            try:
                server.connect()
                warm_failed += WARMUPS - _warm_up(server, docs, references)
                setup_times.append(time.perf_counter() - start)
                mine = segment == index
                tally = Tally([references[i] for i in pick[mine]], decode=trace)
                due_at, sent_at, acked_at, refusals = _offer(
                    server, docs, due[mine] - index * seconds / BOOTS, pick[mine], tally
                )
                refused += refusals
                rss.append(vm_hwm_mb(server.proc.pid)
                           + sum(vm_hwm_mb(p) for p in server.replica_pids()))
                scrapes.append(server.client.request("GET", "/metrics")[2])
            finally:
                server.close()
            tallies.append(tally)
            parts.append((due_at, sent_at, acked_at, tally.done_at))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_frac = steal.stop()

    due_at, sent_at, acked_at, done_at = (np.concatenate(column) for column in zip(*parts))

    def pooled(field: str) -> np.ndarray:
        return np.concatenate([getattr(t, field) for t in tallies])

    ok, done = pooled("ok"), pooled("done")
    total = len(due)
    # a DONE response with the wrong labels is a wrong output, not a miss
    correct = warm_failed == 0 and not np.any(done & ~ok)
    latency = (done_at - due_at) * 1e3
    late = (sent_at - due_at) * 1e3
    within = ok & (latency <= slo_ms)
    failed = total - int(np.count_nonzero(ok)) + warm_failed
    attempted = total + WARMUPS * BOOTS
    note("manifest", {
        "requests": total, "rate_rps": RATE, "done": int(done.sum()), "refused": refused,
        "setup_s_samples": setup_times, "steal_frac": steal_frac,
        "loadgen_late_p99_ms": percentile(late.tolist(), 99),
        "boot_lat_p50_ms": [median(latency[ok & (segment == b)].tolist()) for b in range(BOOTS)],
        # a growing backlog shows as a rising median from quarter to quarter
        "quarter_lat_p50_ms": [median(latency[ok & (quarter == q)].tolist()) for q in range(4)],
    })

    if not trace:
        lat_ok = latency[ok].tolist()
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "lat_p50_ms": (median(lat_ok), "ms"),
            "lat_p99_ms": (percentile(lat_ok, 99), "ms"),
            "slo_ok_frac": (np.count_nonzero(within) / total, "fraction"),
            "peak_rss_mb": (max(rss), "MiB"),
        }
        return correct, attempted, failed, metrics

    # The server emits its per-request fields whether or not the run is
    # traced; decoding them is the trace's only cost in the timed window.
    # Requests that skip it give the untraced baseline.
    decoded = pooled("decoded")
    traced, plain = ok & decoded, ok & ~decoded
    queued = pooled("queued_s")[traced] * 1e3
    server_ms = pooled("server_s")[traced] * 1e3
    batch = pooled("batch_size")[traced]
    client_ms = (done_at[traced] - sent_at[traced]) * 1e3
    imbalance = [max(r) / (sum(r) / len(r)) for r in
                 ([replica["routed"] for replica in scrape["replicas"]] for scrape in scrapes)]
    metrics = {
        "transport.ack_ms_p50": (median(((acked_at - sent_at) * 1e3).tolist()), "ms"),
        "hop.overhead_ms_p50": (median((client_ms - server_ms).tolist()), "ms"),
        "workers.service_ms_p50": (median((server_ms - queued).tolist()), "ms"),
        "queue.wait_ms_p50": (median(queued.tolist()), "ms"),
        "queue.wait_ms_p99": (percentile(queued.tolist(), 99), "ms"),
        "batcher.batch_size_mean": (float(batch.mean()), "count"),
        "batcher.multi_frac": (float(np.mean(batch > 1)), "fraction"),
        "queue.shed": (sum(s["metrics"]["shed"] for s in scrapes), "count"),
        "queue.rejected": (sum(s["metrics"]["rejected"] for s in scrapes) + refused, "count"),
        "replicas.imbalance": (float(np.mean(imbalance)), "ratio"),
        "supervisor.restarts": (sum(r["restarts"] for s in scrapes for r in s["replicas"]), "count"),
        "loadgen.late_p99_ms": (percentile(late.tolist(), 99), "ms"),
        "host.steal_frac": (steal_frac, "fraction"),
        "trace.overhead_frac": (
            median(latency[traced].tolist()) / median(latency[plain].tolist()) - 1.0, "fraction"
        ),
    }
    return correct, attempted, failed, metrics
