"""Per-layer metrics: which functions are traced, and what each metric means.

:data:`SPANS` names the functions the traced run wraps, one span name
each.  :data:`LAYER_METRICS` is the layer -> metric -> workload map: what
each per-layer metric measures, which end-to-end metric it should move
and on which workload, and the workloads where it should not move
("light").  A claim cites a pair from ``moves`` as ``(metric, workload)``.
:func:`layer_metrics` turns one traced window into those numbers.

Unless a definition says otherwise a metric is normalised per op, where
an op is one acked put (``ack-r2``), one put of a batch
(``ingest-wal``) or one handoff (``handoff``).  ``_us`` metrics are self
time, the span's duration minus its traced children, unless the definition
says duration.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from perfbench.stats import per_op
from perfbench.tracing import AMOUNT, COUNT, SELF_NS, TOTAL_NS, Patches, Tracer


def _result_len(args: tuple, result: object) -> int:
    return len(result)


def _hit(args: tuple, result: object) -> int:
    return result is not None


#: (span, module, attribute path, amount) for every traced function.
SPANS = (
    ("transferable.encode", "repro.transferable.wire", "encode", _result_len),
    ("transferable.decode", "repro.transferable.wire", "decode", None),
    ("codec.encode_message", "repro.network.codec", "encode_message", None),
    ("codec.encode_burst", "repro.network.codec", "encode_correlated_burst", _result_len),
    ("codec.decode_tagged", "repro.network.codec", "decode_tagged", None),
    ("codec.decode_message", "repro.network.codec", "decode_message", None),
    ("transport.send", "repro.network.transport", "InMemoryConnection.send", None),
    ("transport.recv", "repro.network.transport", "InMemoryConnection.recv", None),
    ("client.put_future", "repro.runtime.client", "MemoClient.put_future", None),
    ("client.put_many", "repro.runtime.client", "MemoClient.put_many", None),
    ("client.flush", "repro.runtime.client", "MemoClient.flush", None),
    ("client.get_wait", "repro.runtime.client", "MemoClient.get_wait", None),
    ("client.pump", "repro.runtime.client", "MemoClient.pump", None),
    ("client.future_wait", "repro.core.futures", "MemoFuture.wait", None),
    ("folder_server.put", "repro.servers.folder_server", "FolderServer.put", None),
    ("folder_server.get_async", "repro.servers.folder_server", "FolderServer.get_async", None),
    ("folder_server.get", "repro.servers.folder_server", "FolderServer.get", None),
    ("folder_server.get_skip", "repro.servers.folder_server", "FolderServer.get_skip", None),
    ("threadcache.submit", "repro.servers.threadcache", "ThreadCache.submit", None),
    ("threadcache.scatter_join", "repro.servers.threadcache", "scatter_join", None),
    ("hashing.placement_cache_get", "repro.servers.hashing", "PlacementCache.get", _hit),
    ("hashing.replica_chain", "repro.servers.hashing", "FolderPlacement.replica_chain", None),
    ("replication.probe_round", "repro.replication.failure", "HeartbeatMonitor.probe_once", None),
    ("replication.probe", "repro.replication.failure", "HeartbeatMonitor._probe", None),
    ("durability.log_put", "repro.durability.store", "DurableStore.log_put", None),
    ("durability.log_consume", "repro.durability.store", "DurableStore.log_consume", None),
    ("durability.commit", "repro.durability.store", "DurableStore.commit", None),
    ("durability.snapshot", "repro.durability.store", "DurableStore.snapshot_now", None),
)

CLIENT_SPANS = tuple(s[0] for s in SPANS if s[0].startswith("client."))
FOLDER_GET_SPANS = ("folder_server.get_async", "folder_server.get", "folder_server.get_skip")


def install(tracer: Tracer) -> Patches:
    """Wrap every :data:`SPANS` function where it is looked up."""
    patches = Patches()
    try:
        for span, module_name, path, amount in SPANS:
            owner: object = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            patches.wrap(
                owner, attr, lambda fn, span=span, amount=amount: tracer.wrap(span, fn, amount)
            )
    except BaseException:
        patches.restore()
        raise
    return patches


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end metrics it should move."""

    name: str
    unit: str
    better: str
    definition: str
    #: (end-to-end metric, workload) pairs this metric should move.
    moves: tuple[tuple[str, str], ...]
    #: Workloads where the metric should not move.
    light: tuple[str, ...] = ()


_ALL = ("ack-r2", "ingest-wal", "handoff")

LAYER_METRICS = (
    LayerMetric("transferable.encode_us", "us", "lower",
                "self time of repro.transferable.wire.encode",
                (("ops_per_s", "ingest-wal"), ("op_p50_us", "handoff"))),
    LayerMetric("transferable.decode_us", "us", "lower",
                "self time of repro.transferable.wire.decode",
                (("ops_per_s", "ingest-wal"), ("op_p50_us", "handoff"))),
    LayerMetric("transferable.bytes_per_value", "bytes", "lower",
                "encoded bytes per wire.encode call (not per op)",
                (("ops_per_s", "ingest-wal"), ("op_p50_us", "handoff"))),
    LayerMetric("codec.encode_us", "us", "lower",
                "self time of codec.encode_message and encode_correlated_burst",
                (("ops_per_s", "ingest-wal"), ("op_p50_us", "ack-r2"))),
    LayerMetric("codec.decode_us", "us", "lower",
                "self time of codec.decode_tagged and decode_message",
                (("ops_per_s", "ingest-wal"), ("op_p50_us", "ack-r2"))),
    LayerMetric("codec.frames", "count", "lower",
                "protocol frames encoded",
                (("ops_per_s", "ingest-wal"), ("op_p50_us", "ack-r2"))),
    LayerMetric("transport.msgs", "count", "lower",
                "fabric messages, from Cluster.metrics(); burst coalescing shows "
                "as fewer per put on ingest-wal",
                (("op_p50_us", "ack-r2"), ("ops_per_s", "ingest-wal"))),
    LayerMetric("transport.bytes", "bytes", "lower",
                "fabric bytes, from Cluster.metrics()",
                (("op_p50_us", "ack-r2"),)),
    LayerMetric("transport.send_us", "us", "lower",
                "self time of InMemoryConnection.send, all threads",
                (("op_p50_us", "ack-r2"),)),
    LayerMetric("transport.recv_wait_us", "us", "lower",
                "time the client thread spent in InMemoryConnection.recv: "
                "waiting, not work",
                (("op_p50_us", "ack-r2"),)),
    LayerMetric("client.self_us", "us", "lower",
                "self time of MemoClient.put_future/put_many/flush/get_wait/pump "
                "and MemoFuture.wait",
                (("ops_per_s", "ingest-wal"), ("op_p50_us", "handoff"))),
    LayerMetric("client.wait_us", "us", "lower",
                "time the client thread spent blocked in MemoFuture.wait and "
                "MemoClient.flush, children included",
                (("ops_per_s", "ingest-wal"), ("op_p50_us", "handoff"))),
    LayerMetric("memo_server.forwards", "count", "lower",
                "forwards_out delta of Cluster.stats(), all hosts",
                (("op_p50_us", "ack-r2"), ("op_p50_us", "handoff"))),
    LayerMetric("memo_server.push_frames", "count", "lower",
                "push_frames delta of Cluster.stats(), all hosts",
                (("op_p50_us", "handoff"),)),
    LayerMetric("memo_server.waiters_parked", "count", "lower",
                "waiters_parked delta of Cluster.stats(), all hosts",
                (("op_p50_us", "handoff"),)),
    LayerMetric("memo_server.residual_us", "us", "lower",
                "op wall time minus the self time of every traced span on the "
                "client thread except recv: server-side time plus untraced "
                "client code",
                (("op_p50_us", "ack-r2"), ("op_p50_us", "handoff"))),
    LayerMetric("folder_server.put_us", "us", "lower",
                "self time of FolderServer.put, primaries and replicas",
                tuple(("op_p50_us", w) for w in _ALL)),
    LayerMetric("folder_server.get_us", "us", "lower",
                "self time of FolderServer.get_async/get/get_skip",
                tuple(("op_p50_us", w) for w in _ALL)),
    LayerMetric("folder_server.calls", "count", "lower",
                "FolderServer put and get calls",
                tuple(("op_p50_us", w) for w in _ALL)),
    LayerMetric("threadcache.submits", "count", "lower",
                "ThreadCache.submit calls (thread handoffs)",
                (("op_p50_us", "ack-r2"), ("op_p50_us", "handoff")),
                ("ingest-wal",)),
    LayerMetric("threadcache.scatter_join_us", "us", "lower",
                "duration of scatter_join, children included",
                (("op_p50_us", "ack-r2"),), ("ingest-wal",)),
    LayerMetric("threadcache.threads_alive", "count", "lower",
                "threads alive at the end of the traced window (a gauge, not "
                "per op)",
                (("op_p50_us", "ack-r2"),), ("ingest-wal",)),
    LayerMetric("hashing.placement_cache_hit_ratio", "ratio", "higher",
                "PlacementCache.get calls that hit, over all calls",
                (("op_p50_us", "ack-r2"),)),
    LayerMetric("hashing.replica_chain_calls", "count", "lower",
                "FolderPlacement.replica_chain calls",
                (("op_p50_us", "ack-r2"),)),
    LayerMetric("replication.legs", "count", "lower",
                "replications_out delta of Cluster.stats(), all hosts",
                (("op_p50_us", "ack-r2"),),
                ("ingest-wal", "handoff")),
    LayerMetric("replication.probes_per_s", "1/s", "lower",
                "heartbeat probes (HeartbeatMonitor._probe) per wall second",
                (("cpu_us_per_op", "ack-r2"), ("op_p99_us", "ack-r2")),
                ("ingest-wal", "handoff")),
    LayerMetric("replication.probe_us", "us", "lower",
                "duration of one HeartbeatMonitor.probe_once round (per round, "
                "not per op)",
                (("cpu_us_per_op", "ack-r2"), ("op_p99_us", "ack-r2")),
                ("ingest-wal", "handoff")),
    LayerMetric("replication.idle_cpu_cores", "cores", "lower",
                "process CPU seconds per wall second over an idle window with "
                "the cluster up (a rate, not per op)",
                (("cpu_us_per_op", "ack-r2"),), ("ingest-wal", "handoff")),
    LayerMetric("durability.log_us", "us", "lower",
                "self time of DurableStore.log_put and log_consume",
                (("ops_per_s", "ingest-wal"), ("op_p99_us", "ingest-wal")),
                ("ack-r2", "handoff")),
    LayerMetric("durability.commit_us", "us", "lower",
                "self time of DurableStore.commit (snapshots excluded)",
                (("ops_per_s", "ingest-wal"), ("op_p99_us", "ingest-wal")),
                ("ack-r2", "handoff")),
    LayerMetric("durability.snapshot_us", "us", "lower",
                "duration of DurableStore.snapshot_now",
                (("ops_per_s", "ingest-wal"), ("op_p99_us", "ingest-wal")),
                ("ack-r2", "handoff")),
    LayerMetric("durability.snapshots", "count/kop", "lower",
                "snapshots_written delta of the durability gauges, per 1000 ops",
                (("op_p99_us", "ingest-wal"),), ("ack-r2", "handoff")),
    LayerMetric("durability.wal_bytes_per_put", "bytes", "lower",
                "wal_bytes delta of the durability gauges",
                (("ops_per_s", "ingest-wal"),), ("ack-r2", "handoff")),
    LayerMetric("durability.fsyncs_per_1k", "count/kop", "lower",
                "fsyncs delta of the durability gauges, per 1000 ops",
                (("ops_per_s", "ingest-wal"),), ("ack-r2", "handoff")),
    LayerMetric("trace.overhead_us_per_op", "us", "lower",
                "traced minus untraced wall time per op, over windows of equal "
                "length on the same cluster",
                ()),
    LayerMetric("trace.overhead_pct", "%", "lower",
                "trace.overhead_us_per_op as a share of the untraced wall time "
                "per op",
                ()),
)


@dataclass
class TracedWindow:
    """Everything measured over one traced window."""

    ops: int
    wall_s: float
    spans: dict[str, list[int]]
    client_spans: dict[str, list[int]]
    #: Deltas of program counters summed over hosts: ``memo.*`` from
    #: Cluster.stats(), ``durability.*`` gauges, ``fabric.msgs``/``bytes``
    #: from Cluster.metrics().
    counters: dict[str, float]
    threads_alive: int
    idle_cpu_cores: float
    untraced_wall_s: float
    untraced_ops: int


def _field(rows: dict[str, list[int]], spans: tuple[str, ...], field: int) -> int:
    return sum(rows[s][field] for s in spans if s in rows)


def layer_metrics(w: TracedWindow) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced window."""
    ops, c = w.ops, w.counters

    def self_us(*spans: str, rows: dict | None = None) -> float:
        return per_op(_field(w.spans if rows is None else rows, spans, SELF_NS) / 1e3, ops)

    def total_us(*spans: str, rows: dict | None = None) -> float:
        return per_op(_field(w.spans if rows is None else rows, spans, TOTAL_NS) / 1e3, ops)

    def count(*spans: str) -> int:
        return _field(w.spans, spans, COUNT)

    def amount(*spans: str) -> int:
        return _field(w.spans, spans, AMOUNT)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall_us = per_op(w.wall_s * 1e6, ops)
    untraced_us = per_op(w.untraced_wall_s * 1e6, w.untraced_ops)
    client_work = tuple(s for s in w.client_spans if s != "transport.recv")
    rounds = count("replication.probe_round")
    return {
        "transferable.encode_us": self_us("transferable.encode"),
        "transferable.decode_us": self_us("transferable.decode"),
        "transferable.bytes_per_value": ratio(
            amount("transferable.encode"), count("transferable.encode")
        ),
        "codec.encode_us": self_us("codec.encode_message", "codec.encode_burst"),
        "codec.decode_us": self_us("codec.decode_tagged", "codec.decode_message"),
        "codec.frames": per_op(
            count("codec.encode_message") + amount("codec.encode_burst"), ops
        ),
        "transport.msgs": per_op(c.get("fabric.msgs", 0), ops),
        "transport.bytes": per_op(c.get("fabric.bytes", 0), ops),
        "transport.send_us": self_us("transport.send"),
        "transport.recv_wait_us": total_us("transport.recv", rows=w.client_spans),
        "client.self_us": self_us(*CLIENT_SPANS),
        "client.wait_us": total_us(
            "client.future_wait", "client.flush", rows=w.client_spans
        ),
        "memo_server.forwards": per_op(c.get("memo.forwards_out", 0), ops),
        "memo_server.push_frames": per_op(c.get("memo.push_frames", 0), ops),
        "memo_server.waiters_parked": per_op(c.get("memo.waiters_parked", 0), ops),
        "memo_server.residual_us": wall_us
        - self_us(*client_work, rows=w.client_spans),
        "folder_server.put_us": self_us("folder_server.put"),
        "folder_server.get_us": self_us(*FOLDER_GET_SPANS),
        "folder_server.calls": per_op(
            count("folder_server.put", *FOLDER_GET_SPANS), ops
        ),
        "threadcache.submits": per_op(count("threadcache.submit"), ops),
        "threadcache.scatter_join_us": total_us("threadcache.scatter_join"),
        "threadcache.threads_alive": float(w.threads_alive),
        "hashing.placement_cache_hit_ratio": ratio(
            amount("hashing.placement_cache_get"), count("hashing.placement_cache_get")
        ),
        "hashing.replica_chain_calls": per_op(count("hashing.replica_chain"), ops),
        "replication.legs": per_op(c.get("memo.replications_out", 0), ops),
        "replication.probes_per_s": ratio(count("replication.probe"), w.wall_s),
        "replication.probe_us": ratio(
            _field(w.spans, ("replication.probe_round",), TOTAL_NS) / 1e3, rounds
        ),
        "replication.idle_cpu_cores": w.idle_cpu_cores,
        "durability.log_us": self_us("durability.log_put", "durability.log_consume"),
        "durability.commit_us": self_us("durability.commit"),
        "durability.snapshot_us": total_us("durability.snapshot"),
        "durability.snapshots": per_op(
            1000 * c.get("durability.snapshots_written", 0), ops
        ),
        "durability.wal_bytes_per_put": per_op(c.get("durability.wal_bytes", 0), ops),
        "durability.fsyncs_per_1k": per_op(1000 * c.get("durability.fsyncs", 0), ops),
        "trace.overhead_us_per_op": wall_us - untraced_us,
        "trace.overhead_pct": 100 * ratio(wall_us - untraced_us, untraced_us),
    }
