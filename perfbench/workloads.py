"""The three seeded, closed-loop workloads and the windows that time them.

Every workload drives an in-process cluster over the in-memory fabric
(zero modelled link latency) through the public API -- ``Cluster`` and
``Memo`` -- from one client thread.  Each op waits for the previous one
to finish (a closed loop), so the load never exceeds one op in flight.
Keys and values come from ``random.Random(seed)`` only.  Warm-up runs
before timing; verification runs after it, and on ``ingest-wal`` also
before each full cluster is replaced by a fresh one.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro import Cluster, system_default_adf
from repro.core.keys import Key, Symbol
from repro.durability.config import DurabilityConfig
from repro.errors import MemoError
from repro.transferable.wire import decode

APP = "bench"

#: Seconds one op may take before it counts as failed.  A future wait is
#: cut off at this deadline; a flush, which takes no timeout, is cut off
#: by a :class:`Watchdog`.
DEADLINE_S = 5.0

#: Ops run before timing: enough to start every server thread, open the
#: forwarding connections and fill the thread caches.  Placement caches
#: fill during the first second of the window, a negligible share of it.
WARM_OPS = 64

#: Puts per ``put_many`` batch on ``ingest-wal``, and batches of warm-up.
BATCH = 64
WARM_BATCHES = 4

#: Puts, warm-up included, ``ingest-wal`` loads into one cluster before it
#: is verified and replaced by a fresh one.  A WAL snapshot writes the
#: whole store, so on a store that kept growing the cost of a put would
#: grow with the puts a run fits in, and that count follows the speed of
#: the machine; loads of a fixed size keep the op the same in every run.
EPOCH_PUTS = 16384

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


@dataclass(frozen=True)
class Workload:
    """One workload: its cluster, its op, and why it is in the benchmark."""

    name: str
    hosts: int
    rf: int
    wal: bool
    folders: int
    kind: str
    why: str
    op: str
    loop: str = "closed loop, 1 client thread, next op after the previous completes"
    clients: str = "1 connection to h0"
    flush: str = "none: every put is acknowledged before the next op"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ack-r2", 3, 2, False, 1024, "ack",
            why="closed loop, 1 client on h0: acked 65 B put, rf=2, 3 hosts, 1024 "
            "folders; replica legs, forwarding and handoffs do the work. mesh12-r2 "
            "(12 hosts) dropped: 5-seed IQR/median p99 0.16, ops/s 0.09",
            op="put(key, 65 B dict, wait=True) from h0 with a 5 s deadline, "
            "key drawn uniformly over 1024 folders",
        ),
        Workload(
            "ingest-wal", 2, 1, True, 4096, "ingest",
            why="closed loop, 1 client on h0: put_many of 64 then flush, 2 hosts, "
            "rf=1, 4096 folders, WAL fsync=batch, 16384 puts per fresh cluster; "
            "codec, put lanes, burst forwarding and WAL snapshots do the work",
            op="put_many of 64 memos then flush, keys over 4096 folders, 16384 "
            "puts into each fresh cluster; latency is per batch, throughput and "
            "CPU per put",
            flush="flush after every 64-put batch; WAL fsync=batch",
        ),
        Workload(
            "handoff", 2, 1, False, 0, "handoff",
            why="closed loop, 1 thread with 2 clients (h0 puts, h1 gets), 2 hosts, "
            "rf=1, fresh key per op, park-first or put-first; waiter table, push "
            "and client demux do the work",
            op="fresh key per op; the seed picks park-first (get_async, put) or "
            "put-first, half and half; latency runs from put to the consumer future",
            clients="2 connections: producer on h0, consumer on h1",
        ),
    )
}


def _token(rng: random.Random) -> str:
    return "".join(rng.choices(_ALPHABET, k=8))


def start_cluster(w: Workload, data_dir: Path) -> Cluster:
    """Start and register the cluster *w* runs on."""
    hosts = [f"h{i}" for i in range(w.hosts)]
    adf = system_default_adf(hosts, app=APP, replication_factor=w.rf)
    durability = DurabilityConfig(data_dir=str(data_dir)) if w.wal else None
    cluster = Cluster(adf, durability=durability).start()
    try:
        cluster.register()
    except BaseException:
        cluster.stop()
        raise
    return cluster


class AckPuts:
    """``ack-r2``: one acked put per op from h0."""

    units = 1
    warm_ops = WARM_OPS
    symbol = Symbol("ack")

    def __init__(self, cluster: Cluster, w: Workload, rng: random.Random) -> None:
        self.cluster, self.w, self.rng = cluster, w, rng
        self.memo = cluster.memo_api("h0", APP, "client")
        self.acked: list[tuple[int, int]] = []
        self.next_op = 0

    def step(self) -> float:
        op, self.next_op = self.next_op, self.next_op + 1
        folder = self.rng.randrange(self.w.folders)
        key, value = Key(self.symbol, (folder,)), {"op": op, "v": _token(self.rng)}
        start = time.perf_counter()
        self.memo.put_async(key, value).wait(DEADLINE_S)
        elapsed = time.perf_counter() - start
        self.acked.append((op, folder))
        return elapsed

    def full(self) -> bool:
        return False

    def verify(self) -> int:
        """Acked puts not held on exactly ``rf`` stores in their folder."""
        copies: Counter = Counter()
        for server in self.cluster.servers.values():
            stores = [
                *server.local_folder_servers().values(),
                *server.local_replica_servers().values(),
            ]
            for fs in stores:
                for name, memos, _delayed in fs.snapshot_folders(
                    lambda n: n.key.symbol == self.symbol
                ):
                    for record in memos:
                        copies[(decode(record.payload)["op"], name.key.index[0])] += 1
        return sum(1 for acked in self.acked if copies[acked] != self.w.rf)

    def close(self) -> None:
        self.memo.close()


class Watchdog:
    """Calls *abort* once an armed op has run for more than :data:`DEADLINE_S`.

    It polls from its own thread a few times a second, so the op's thread
    pays two attribute writes per op and no wake-up.
    """

    POLL_S = 0.25

    def __init__(self, abort) -> None:
        self._abort = abort
        self._started: float | None = None
        self.fired = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-watchdog", daemon=True)
        self._thread.start()

    def arm(self) -> None:
        self._started = time.perf_counter()

    def disarm(self) -> None:
        self._started = None

    def _run(self) -> None:
        while not self._stop.wait(self.POLL_S):
            started = self._started
            if started is not None and time.perf_counter() - started > DEADLINE_S:
                self._started = None
                self.fired += 1
                self._abort()

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


class Ingest:
    """``ingest-wal``: ``put_many`` of :data:`BATCH` memos, then ``flush``."""

    units = BATCH
    warm_ops = WARM_BATCHES
    symbol = Symbol("ingest")

    def __init__(self, cluster: Cluster, w: Workload, rng: random.Random) -> None:
        self.cluster, self.w, self.rng = cluster, w, rng
        self.memo = cluster.memo_api("h0", APP, "client")
        self.stored = 0
        self.next_op = 0
        # A flush past the deadline is cut off by closing the client's
        # connection: the blocked drain then counts the outstanding acks
        # lost and ``flush`` raises MemoError, so the batch counts as
        # failed; the next batch reconnects.
        self.watchdog = Watchdog(lambda: self.memo.client._conn.close())

    def step(self) -> float:
        rng, folders, op = self.rng, self.w.folders, self.next_op
        batch = [
            (Key(self.symbol, (rng.randrange(folders),)), {"op": op + i, "v": _token(rng)})
            for i in range(BATCH)
        ]
        self.next_op += BATCH
        self.watchdog.arm()
        start = time.perf_counter()
        try:
            self.memo.put_many(batch)
            self.memo.flush()
            elapsed = time.perf_counter() - start
        finally:
            self.watchdog.disarm()
        self.stored += BATCH
        return elapsed

    def full(self) -> bool:
        """True once :data:`EPOCH_PUTS` puts have been attempted."""
        return self.next_op >= EPOCH_PUTS

    def verify(self) -> int:
        """Memos missing (or extra) against the puts flushed."""
        held = sum(
            fs.memo_count()
            for server in self.cluster.servers.values()
            for fs in server.local_folder_servers().values()
        )
        return abs(held - self.stored)

    def close(self) -> None:
        self.watchdog.close()
        self.memo.close()


class Handoff:
    """``handoff``: producer on h0 puts, consumer on h1 takes, fresh key per op."""

    units = 1
    warm_ops = WARM_OPS
    symbol = Symbol("handoff")

    def __init__(self, cluster: Cluster, w: Workload, rng: random.Random) -> None:
        self.cluster, self.w, self.rng = cluster, w, rng
        self.producer = cluster.memo_api("h0", APP, "producer")
        self.consumer = cluster.memo_api("h1", APP, "consumer")
        self.pairs: list[tuple[dict, object]] = []
        self.next_op = 0

    def step(self) -> float:
        op, self.next_op = self.next_op, self.next_op + 1
        key, value = Key(self.symbol, (op,)), {"op": op, "v": _token(self.rng)}
        if self.rng.random() < 0.5:
            got = self.consumer.get_async(key)
            start = time.perf_counter()
            ack = self.producer.put_async(key, value)
        else:
            start = time.perf_counter()
            ack = self.producer.put_async(key, value)
            got = self.consumer.get_async(key)
        result = got.wait(DEADLINE_S)
        elapsed = time.perf_counter() - start
        ack.wait(DEADLINE_S)
        self.pairs.append((value, result))
        return elapsed

    def full(self) -> bool:
        return False

    def verify(self) -> int:
        """Handoffs whose consumer did not get exactly the value put."""
        return sum(1 for sent, got in self.pairs if sent != got)

    def close(self) -> None:
        self.producer.close()
        self.consumer.close()


#: Op streams by workload kind.  Each has ``units`` (ops per step),
#: ``warm_ops``, ``step()`` returning one op's latency in seconds,
#: ``full()`` telling whether its cluster must be replaced before the next
#: step, ``verify()`` returning the ops that failed verification, and
#: ``close()``.
STREAMS = {"ack": AckPuts, "ingest": Ingest, "handoff": Handoff}


@dataclass
class Window:
    """One timed window of closed-loop ops."""

    attempted: int = 0
    failed: int = 0
    ops: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies: list[float] = field(default_factory=list)


def warm_up(stream) -> int:
    """Run the stream's warm-up ops; returns the units that failed."""
    failed = 0
    for _ in range(stream.warm_ops):
        try:
            stream.step()
        except (MemoError, TimeoutError):
            failed += stream.units
    return failed


def set_up(w: Workload, data_dir: Path, rng: random.Random):
    """Start *w*'s cluster, open its op stream on *rng* and warm it up, timed.

    Returns ``(cluster, stream, seconds, failed)``: the seconds the whole
    set-up took and the warm-up units that failed.  Stops the cluster if a
    step raises.
    """
    start = time.perf_counter()
    cluster = start_cluster(w, data_dir)
    try:
        stream = STREAMS[w.kind](cluster, w, rng)
        try:
            failed = warm_up(stream)
        except BaseException:
            stream.close()
            raise
    except BaseException:
        cluster.stop()
        raise
    return cluster, stream, time.perf_counter() - start, failed


def timed_window(stream, seconds: float) -> Window:
    """Run ops back to back for *seconds*, or until the stream is full;
    failures are counted, not raised."""
    gc.collect()
    w = Window()
    units = stream.units
    clock = time.perf_counter
    cpu0, start = time.process_time(), clock()
    end = start + seconds
    while clock() < end and not stream.full():
        w.attempted += units
        try:
            elapsed = stream.step()
        except (MemoError, TimeoutError):
            w.failed += units
            continue
        if elapsed > DEADLINE_S:
            w.failed += units
            continue
        w.ops += units
        w.latencies.append(elapsed)
    w.wall_s = clock() - start
    w.cpu_s = time.process_time() - cpu0
    return w


def merge(windows: list[Window]) -> Window:
    """One window holding everything the given windows measured."""
    out = Window()
    for w in windows:
        out.attempted += w.attempted
        out.failed += w.failed
        out.ops += w.ops
        out.wall_s += w.wall_s
        out.cpu_s += w.cpu_s
        out.latencies += w.latencies
    return out


#: Rounds of :func:`speed_probe`'s loop: about 8 ms of CPU at the
#: reference speed.
PROBE_ROUNDS = 2000


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: str) -> None:
        self.a, self.b = a, b


def speed_probe() -> float:
    """Thread CPU seconds of a fixed pure-Python loop: the machine's speed now.

    The loop does the kind of work the program does -- calls, small
    objects, dict and list traffic -- so its time tracks the program's
    when the machine speeds up or slows down.  Thread CPU time leaves out
    the time other threads hold the CPU or the interpreter lock, so work
    the cluster does in the background cannot slow the probe, and the
    garbage collector is off, so the size of the program's heap cannot.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table: dict = {}
        for i in range(PROBE_ROUNDS):
            items = [_Probe(i, "x"), _Probe(i + 1, "y"), (i, i)]
            for j in range(8):
                table[(j, i & 63)] = items[j % 3]
            table.pop((i & 7, (i - 1) & 63), None)
            "".join(str(p) for p in (i, j))
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def scaled(w: Window, factor: float) -> Window:
    """*w* with every time in it multiplied by *factor*."""
    return Window(
        attempted=w.attempted,
        failed=w.failed,
        ops=w.ops,
        wall_s=w.wall_s * factor,
        cpu_s=w.cpu_s * factor,
        latencies=[x * factor for x in w.latencies],
    )


def idle_cpu_cores(seconds: float) -> float:
    """Process CPU seconds per wall second while this thread sleeps."""
    cpu0, start = time.process_time(), time.perf_counter()
    time.sleep(seconds)
    return (time.process_time() - cpu0) / (time.perf_counter() - start)
