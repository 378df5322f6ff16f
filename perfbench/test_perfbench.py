"""Checks of the benchmark's own arithmetic and plumbing.

No workload runs here: these tests start no cluster, so they stay fast
enough for the tier-1 suite.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.run import END_TO_END
from perfbench.stats import (
    MIN_BEYOND,
    REF_PROBE_S,
    chunk_size,
    chunked_percentile,
    per_op,
    percentile,
    rank,
    speed_factor,
    supported_tail,
    value_at,
)
from perfbench.tracing import AMOUNT, COUNT, SELF_NS, TOTAL_NS, Patches, Tracer
from perfbench import workloads
from perfbench.workloads import WORKLOADS, Watchdog

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- percentile picker ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, tail",
    [(19, None), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_supported_tail_picks_highest_with_ten_beyond(n, tail):
    assert supported_tail(n) == tail


def test_supported_tail_always_leaves_ten_samples_beyond():
    for n in range(1, 3000):
        tail = supported_tail(n)
        if tail is None:
            assert n - rank(n, 500) < MIN_BEYOND
        else:
            assert n - rank(n, round(tail * 10)) >= MIN_BEYOND


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 99.9) == 100.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_chunk_size_is_the_fewest_samples_with_ten_beyond():
    assert (chunk_size(50), chunk_size(99)) == (20, 1000)
    for pct in (50, 90, 99, 99.9):
        n, tenths = chunk_size(pct), round(pct * 10)
        assert n - rank(n, tenths) == MIN_BEYOND
        assert (n - 1) - rank(n - 1, tenths) < MIN_BEYOND


def test_chunked_percentile_moves_with_the_share_of_slow_chunks():
    fast = [float(i % 100) for i in range(chunk_size(99))]
    slow = [x + 1000.0 for x in fast]
    assert chunked_percentile(fast * 4, 99) == 98.0
    # One slow chunk in four moves the result by a quarter of the gap,
    # where the pooled p99 moves by all of it.
    assert chunked_percentile(fast * 3 + slow, 99) == 348.0
    assert percentile(sorted(fast * 3 + slow), 99) >= 1000.0
    # A median of two modes flips when one chunk in 200 changes mode.
    fast, slow = [float(i) for i in range(chunk_size(50))], [i + 1000.0 for i in range(20)]
    assert chunked_percentile(fast * 100 + slow * 100, 50) == 509.0
    assert chunked_percentile(fast * 99 + slow * 101, 50) == 514.0
    assert percentile(sorted(fast * 100 + slow * 100), 50) == 19.0
    assert percentile(sorted(fast * 99 + slow * 101), 50) == 1000.0
    # The median over chunks ignores a burst confined to a few chunks.
    fast = [float(i % 100) for i in range(chunk_size(99))]
    slow = [x + 1000.0 for x in fast]
    assert chunked_percentile(fast * 3 + slow, 99, statistics.median) == 98.0
    assert chunked_percentile(fast + slow * 3, 99, statistics.median) == 1098.0
    # Too few samples to split: the plain percentile.
    small = [float(i) for i in range(1, chunk_size(99))]
    assert chunked_percentile(small, 99) == percentile(small, 99)


def test_per_op_normalises_and_tolerates_empty_window():
    assert per_op(10, 4) == 2.5
    assert per_op(10, 0) == 0.0


# -- scaling to the reference speed ----------------------------------------------


def test_speed_factor_is_reference_over_mean_probe():
    assert speed_factor(REF_PROBE_S, REF_PROBE_S) == pytest.approx(1.0)
    # Probes twice as slow as the reference: times are halved.
    assert speed_factor(2 * REF_PROBE_S, 2 * REF_PROBE_S) == pytest.approx(0.5)
    assert speed_factor(REF_PROBE_S, 3 * REF_PROBE_S) == pytest.approx(0.5)


def test_scaled_window_scales_times_and_keeps_counts():
    w = workloads.Window(attempted=5, failed=1, ops=4, wall_s=2.0, cpu_s=1.0,
                         latencies=[0.1, 0.2, 0.3, 0.4])
    s = workloads.scaled(w, 0.5)
    assert (s.attempted, s.failed, s.ops) == (5, 1, 4)
    assert (s.wall_s, s.cpu_s) == (1.0, 0.5)
    assert s.latencies == [0.05, 0.1, 0.15, 0.2]
    assert w.latencies == [0.1, 0.2, 0.3, 0.4]


def test_speed_probe_takes_time_and_restores_the_collector():
    import gc

    assert workloads.speed_probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        workloads.speed_probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_value_at_interpolates_and_extends():
    points = [(0, 30.0), (1000, 32.0), (3000, 40.0)]
    assert value_at(points, 0) == 30.0
    assert value_at(points, 500) == 31.0
    assert value_at(points, 2000) == 36.0
    assert value_at(points, 3000) == 40.0
    # Past the last sample: the line through the first and the last.
    assert value_at(points, 6000) == 50.0
    assert value_at([(0, 30.0)], 6000) == 30.0
    assert value_at([(0, 30.0), (0, 31.0)], 6000) == 31.0


class _FakeStream:
    units = 2

    def __init__(self, room: int) -> None:
        self.room, self.steps = room, 0

    def step(self) -> float:
        self.steps += 1
        return 0.001

    def full(self) -> bool:
        return self.steps >= self.room


def test_timed_window_stops_when_the_stream_is_full():
    stream = _FakeStream(room=7)
    w = workloads.timed_window(stream, 5.0)
    assert (stream.steps, w.ops, w.attempted, w.failed) == (7, 14, 14, 0)
    assert len(w.latencies) == 7 and w.wall_s < 5.0


# -- spans and self time --------------------------------------------------------


def test_self_time_is_span_minus_direct_children():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(2000)))
    child = tracer.wrap("child", lambda: [leaf() for _ in range(2)])
    outer = tracer.wrap("outer", lambda: [child() for _ in range(3)] and sum(range(5000)))
    outer()
    rows = tracer.rows()
    assert rows["outer"][COUNT] == 1 and rows["child"][COUNT] == 3 and rows["leaf"][COUNT] == 6
    # A grandchild is already inside its parent's duration: only direct
    # children come off a span's self time.
    assert rows["outer"][SELF_NS] == rows["outer"][TOTAL_NS] - rows["child"][TOTAL_NS]
    assert rows["child"][SELF_NS] == rows["child"][TOTAL_NS] - rows["leaf"][TOTAL_NS]
    assert rows["leaf"][SELF_NS] == rows["leaf"][TOTAL_NS]
    assert rows["outer"][SELF_NS] > 0


def test_spans_nest_per_thread_only():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))

    def on_other_thread():
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    outer = tracer.wrap("outer", on_other_thread)
    outer()
    rows = tracer.rows()
    assert rows["outer"][SELF_NS] == rows["outer"][TOTAL_NS]
    main_only = tracer.rows({threading.get_ident()})
    assert "inner" not in main_only and main_only["outer"][COUNT] == 1


def test_span_amount_and_exception_path():
    tracer = Tracer()
    encode = tracer.wrap("enc", lambda n: b"x" * n, amount=lambda args, result: len(result))

    def fail():
        raise KeyError("boom")

    failing = tracer.wrap("fail", fail)
    encode(3)
    encode(4)
    with pytest.raises(KeyError):
        failing()
    rows = tracer.rows()
    assert rows["enc"][COUNT] == 2 and rows["enc"][AMOUNT] == 7
    assert rows["fail"][COUNT] == 1


def _window(**overrides) -> layers.TracedWindow:
    fields = dict(
        ops=4, wall_s=0.004, spans={}, client_spans={}, counters={},
        threads_alive=5, idle_cpu_cores=0.25,
        untraced_wall_s=0.003, untraced_ops=4,
    )
    fields.update(overrides)
    return layers.TracedWindow(**fields)


def test_layer_metrics_normalise_per_op():
    spans = {
        "transferable.encode": [8, 8000, 8000, 520],
        "codec.encode_message": [12, 9000, 6000, 12],
        "codec.encode_burst": [1, 2000, 2000, 64],
        "hashing.placement_cache_get": [10, 100, 100, 9],
        "replication.probe_round": [2, 6000, 5000, 0],
    }
    client = {
        "transport.recv": [4, 2_000_000, 2_000_000, 0],
        "client.future_wait": [4, 2_400_000, 100_000, 0],
        "codec.encode_message": [4, 3000, 2000, 4],
    }
    m = layers.layer_metrics(_window(
        spans=spans, client_spans=client,
        counters={"memo.forwards_out": 6, "memo.replications_out": 4,
                  "durability.wal_bytes": 400, "durability.fsyncs": 2, "fabric.msgs": 20},
    ))
    assert m["transferable.encode_us"] == 2.0  # 8000 ns over 4 ops
    assert m["transferable.bytes_per_value"] == 65.0  # per call, not per op
    assert m["codec.encode_us"] == 2.0
    assert m["codec.frames"] == (12 + 64) / 4
    assert m["hashing.placement_cache_hit_ratio"] == 0.9
    assert m["replication.probe_us"] == 3.0  # per round
    assert m["replication.probes_per_s"] == 0.0
    assert m["memo_server.forwards"] == 1.5
    assert m["replication.legs"] == 1.0
    assert m["transport.msgs"] == 5.0
    assert m["durability.wal_bytes_per_put"] == 100.0
    assert m["durability.fsyncs_per_1k"] == 500.0
    assert m["transport.recv_wait_us"] == 500.0
    assert m["client.wait_us"] == 600.0
    # 1000 us of wall per op, minus client-thread self time outside recv.
    assert m["memo_server.residual_us"] == pytest.approx(1000.0 - (100_000 + 2000) / 1e3 / 4)
    assert m["trace.overhead_us_per_op"] == pytest.approx(250.0)
    assert m["trace.overhead_pct"] == pytest.approx(100 * 250 / 750)
    assert m["threadcache.threads_alive"] == 5.0
    assert m["replication.idle_cpu_cores"] == 0.25


def test_layer_metrics_of_an_empty_window_are_zero():
    m = layers.layer_metrics(_window(ops=0, untraced_ops=0))
    assert m["transferable.encode_us"] == 0.0 and m["trace.overhead_pct"] == 0.0


# -- wrapper install and restore ------------------------------------------------


@pytest.fixture
def fake_package():
    defining = types.ModuleType("fakepkg.defs")

    def encode(x):
        return x * 2

    class Conn:
        def send(self, x):
            return encode(x) + 1

    defining.encode, defining.Conn = encode, Conn
    importer = types.ModuleType("fakepkg.user")
    importer.encode = encode  # ``from fakepkg.defs import encode``
    importer.alias = encode  # ``... import encode as alias``
    outsider = types.ModuleType("otherpkg")
    outsider.encode = encode
    mods = {"fakepkg.defs": defining, "fakepkg.user": importer, "otherpkg": outsider}
    sys.modules.update(mods)
    try:
        yield defining, importer, outsider
    finally:
        for name in mods:
            sys.modules.pop(name, None)


def test_patches_wrap_every_site_and_restore(fake_package):
    defining, importer, outsider = fake_package
    original_encode, original_send = defining.encode, defining.Conn.send
    tracer = Tracer()
    patches = Patches(module_prefix="fakepkg")
    sites = patches.wrap(defining, "encode", lambda fn: tracer.wrap("enc", fn))
    patches.wrap(defining.Conn, "send", lambda fn: tracer.wrap("send", fn))
    assert sites == 3
    assert importer.encode is defining.encode is importer.alias is not original_encode
    assert outsider.encode is original_encode  # outside the prefix
    assert importer.encode(2) == 4 and defining.Conn().send(1) == 3
    rows = tracer.rows()
    # Conn.send calls encode through its closure, which no patch reaches.
    assert rows["enc"][COUNT] == 1 and rows["send"][COUNT] == 1
    patches.restore()
    assert defining.encode is importer.encode is importer.alias is original_encode
    assert defining.Conn.send is original_send
    patches.restore()  # idempotent
    assert defining.encode is original_encode


def test_install_reaches_by_value_imports_and_restores():
    import repro.core.api
    import repro.durability.store
    import repro.network.codec
    import repro.network.protocol
    import repro.runtime.client
    import repro.servers.memo_server
    import repro.servers.threadcache
    import repro.transferable.wire

    by_value = [
        (repro.core.api, "encode"), (repro.core.api, "decode"),
        (repro.runtime.client, "encode_message"),
        (repro.network.protocol, "encode_message"),
        (repro.servers.memo_server, "encode_message"),
        (repro.servers.memo_server, "decode_message"),
        (repro.servers.memo_server, "scatter_join"),
        (repro.durability.store, "encode_message"),
    ]
    originals = [getattr(mod, name) for mod, name in by_value]
    patches = layers.install(Tracer())
    try:
        for (mod, name), original in zip(by_value, originals):
            assert getattr(mod, name) is not original, f"{mod.__name__}.{name} not wrapped"
            assert getattr(mod, name).__wrapped__ is original
    finally:
        patches.restore()
    for (mod, name), original in zip(by_value, originals):
        assert getattr(mod, name) is original
    from repro.servers.folder_server import FolderServer

    assert not hasattr(FolderServer.put, "__wrapped__")


# -- op deadline ----------------------------------------------------------------


def test_watchdog_aborts_an_overdue_op_once_and_spares_a_prompt_one(monkeypatch):
    monkeypatch.setattr(workloads, "DEADLINE_S", 0.05)
    monkeypatch.setattr(Watchdog, "POLL_S", 0.01)
    aborted = threading.Event()
    dog = Watchdog(aborted.set)
    try:
        dog.arm()
        dog.disarm()
        assert not aborted.wait(0.2)
        dog.arm()
        assert aborted.wait(2.0)
        time.sleep(0.1)
        assert dog.fired == 1  # once per arm, not once per poll
    finally:
        dog.close()
    assert not dog._thread.is_alive()


# -- the catalogue matches BENCHMARK.json ----------------------------------------


def test_benchmark_json_matches_catalogues():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS
    ]
    assert set(layers.layer_metrics(_window())) == {m.name for m in layers.LAYER_METRICS}
    for metric in layers.LAYER_METRICS:
        for e2e, workload in metric.moves:
            assert e2e in END_TO_END and workload in WORKLOADS
        assert set(metric.light) <= set(WORKLOADS)
