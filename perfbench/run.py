"""Seeded benchmark for the D-Memo cluster: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload ack-r2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --describe              # workloads and layer map

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced window instead, plus the tracing overhead against an
untraced window of the same length in the same run.  Lines before it,
each starting with ``#``, stamp the environment and summarise the run.

The speed of a shared machine drifts, by up to twice from one second to
the next and from one minute to the next, and every time measured moves
with it.  An untraced run therefore probes the speed between short slices
of its timed window (``workloads.speed_probe``) and reports each time as
it would read at a fixed reference speed (``stats.speed_factor``).  The
same figures unscaled are printed on a ``#`` line.
The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import faulthandler
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Cluster set-ups per untraced run, spread over it; ``setup_s`` is their
#: median.
SETUP_REPS = 9

#: Seconds of ops between two speed probes in an untraced run.
SLICE_S = 0.5

#: Traced slices a traced run alternates with as many untraced ones.
TRACE_SLICES = 4

#: Idle window, with the cluster up, after the ops.
IDLE_S = 1.5

#: A run that has not finished by then is stuck: dump stacks and exit 1.
HANG_GUARD_S = 170.0

#: Ops (puts on ingest-wal) after which ``rss_mb_at_12k_ops`` is read.
RSS_REF_OPS = 12000

#: End-to-end metrics and their units, in report order.  On ingest-wal
#: throughput and CPU count puts and latency counts 64-put batches; setup_s
#: is the median of SETUP_REPS set-ups (start, register, warm-up), and
#: op_p50_us is the mean of per-chunk medians over chunks of 20 ops and
#: op_p99_us the median of per-chunk p99s over chunks of 1000 ops
#: (stats.chunked_percentile).  Times are scaled to the
#: reference speed (stats.speed_factor).  rss_mb_at_12k_ops is the resident
#: size once RSS_REF_OPS ops are done, read between slices and interpolated
#: (stats.value_at): a store grows with the ops a run fits in, and that
#: count follows the machine's speed, so the size at the end would too.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "cpu_us_per_op": "us",
    "rss_mb_at_12k_ops": "MB",
}


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over the program's sources: names the code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _pin() -> None:
    """Pin the process, and every thread it starts, to one CPU.

    Cross-CPU wake-ups roughly double the latency of a closed-loop op and
    make it wander from second to second; on one CPU runs are steadier.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment(args: argparse.Namespace) -> dict:
    from perfbench.stats import REF_PROBE_S

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fabric_latency_s": 0.0,
        "setup_reps": SETUP_REPS if not args.trace else 1,
        "reference_probe_s": REF_PROBE_S,
    }


def _counters(cluster) -> dict[str, float]:
    """Program counters summed over hosts: memo stats, durability, fabric."""
    out: dict[str, float] = {}
    for stats in cluster.stats().values():
        for key, value in stats.items():
            if key.startswith("memo."):
                out[key] = out.get(key, 0) + value
    for host in cluster.backend.hosts:
        for key, value in cluster.backend.durability_snapshot(host).items():
            out[f"durability.{key}"] = out.get(f"durability.{key}", 0) + value
    fabric = cluster.metrics()
    out["fabric.msgs"] = sum(fabric.link_messages.values())
    out["fabric.bytes"] = sum(fabric.link_bytes.values())
    return out


def _rss_mb() -> float:
    """The process's resident set size now, in MiB."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def end_to_end(window, setup_s: list[float], rss_mb: list[tuple[int, float]]) -> dict[str, float]:
    """The end-to-end metrics of a timed window, its set-up times and the
    resident size sampled as ``(ops done, MiB)`` points over it."""
    from perfbench.stats import chunked_percentile, value_at

    ops, lat = window.ops, window.latencies
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": ops / window.wall_s,
        "op_p50_us": chunked_percentile(lat, 50) * 1e6 if lat else 0.0,
        "op_p99_us": chunked_percentile(lat, 99, statistics.median) * 1e6 if lat else 0.0,
        "cpu_us_per_op": window.cpu_s / ops * 1e6 if ops else 0.0,
        "rss_mb_at_12k_ops": value_at(rss_mb, RSS_REF_OPS),
    }


class Run:
    """A workload's cluster and op stream, replaced by a fresh pair each
    time the stream is full; counts the ops that failed in warm-up and in
    verification."""

    def __init__(self, w, tmp_dir: Path, seed: int) -> None:
        self.w, self.tmp_dir = w, tmp_dir
        self.rng = random.Random(seed)
        self.cluster = self.stream = None
        self.clusters = 0
        self.warm_failed = self.verify_failed = 0
        self.threads_alive = 0

    def start(self) -> float:
        """Set up a cluster and its stream; returns the seconds it took."""
        from perfbench.workloads import set_up

        self.cluster, self.stream, seconds, failed = set_up(
            self.w, self.tmp_dir / f"cluster{self.clusters}", self.rng
        )
        self.clusters += 1
        self.warm_failed += failed
        return seconds

    def timed(self, seconds: float, tracer=None, counts: dict | None = None) -> list:
        """Timed windows of ops over *seconds*, one per cluster used.  With a
        *tracer* the layers are traced during the windows and the program's
        counters over them are added to *counts*."""
        from perfbench import layers
        from perfbench.workloads import timed_window

        windows = []
        end = time.perf_counter() + seconds
        while (left := end - time.perf_counter()) > 0:
            if tracer is None:
                windows.append(timed_window(self.stream, left))
            else:
                before = _counters(self.cluster)
                patches = layers.install(tracer)
                try:
                    windows.append(timed_window(self.stream, left))
                    self.threads_alive = threading.active_count()
                finally:
                    patches.restore()
                for key, value in _counters(self.cluster).items():
                    counts[key] = counts.get(key, 0) + value - before.get(key, 0)
            if self.stream.full():
                self.finish()
                self.start()
        return windows

    def finish(self) -> None:
        """Verify the current cluster, then stop it."""
        try:
            self.verify_failed += self.stream.verify()
        finally:
            self.close()

    def close(self) -> None:
        stream, cluster, self.stream, self.cluster = self.stream, self.cluster, None, None
        try:
            if stream is not None:
                stream.close()
        finally:
            if cluster is not None:
                cluster.stop()


def run_workload(name: str, args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Run one workload; returns its result object and summary lines."""
    from perfbench import layers
    from perfbench.stats import REF_PROBE_S, percentile, speed_factor, supported_tail
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, idle_cpu_cores, merge, scaled, set_up, speed_probe

    w = WORKLOADS[name]
    tmp_dir = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{name}"
    run = Run(w, tmp_dir, args.seed)
    try:
        probe = speed_probe()
        first_s = run.start()
        after = speed_probe()
        raw_setup_s, setup_s, probes = [first_s], [first_s * speed_factor(probe, after)], [after]
        idle = idle_cpu_cores(IDLE_S)
        if args.trace:
            # Traced and untraced slices alternate, so a drift in machine
            # speed during the run lands on both sides of the overhead.
            tracer = Tracer()
            untraced, traced, counts = [], [], {}
            slice_s = args.seconds / (2 * TRACE_SLICES)
            for _ in range(TRACE_SLICES):
                untraced += run.timed(slice_s)
                traced += run.timed(slice_s, tracer, counts)
            windows = untraced + traced
            raw = window = merge(traced)
        else:
            # The timed window is cut into short slices with a speed probe
            # between each two, and a slice's times are scaled to the
            # reference speed by the probes on either side of it.  A spare
            # cluster is set up and torn down after every few slices, so
            # the set-ups sample the machine's speed over the whole run.
            n_slices = max(SETUP_REPS, round(args.seconds / SLICE_S))
            slice_s = args.seconds / n_slices
            spare_after = {rep * n_slices // SETUP_REPS - 1 for rep in range(1, SETUP_REPS)}
            probe = speed_probe()
            rss_mb = [(0, _rss_mb())]
            windows, scaled_windows = [], []
            for i in range(n_slices):
                pieces = run.timed(slice_s)
                after = speed_probe()
                factor = speed_factor(probe, after)
                windows += pieces
                scaled_windows += [scaled(piece, factor) for piece in pieces]
                rss_mb.append((rss_mb[-1][0] + sum(p.ops for p in pieces), _rss_mb()))
                probes.append(after)
                probe = after
                if i in spare_after:
                    spare, spare_stream, seconds, failed = set_up(
                        w, tmp_dir / f"spare{i}", random.Random(args.seed)
                    )
                    try:
                        spare_stream.close()
                    finally:
                        spare.stop()
                    after = speed_probe()
                    raw_setup_s.append(seconds)
                    setup_s.append(seconds * speed_factor(probe, after))
                    run.warm_failed += failed
                    probes.append(after)
                    probe = after
            raw = merge(windows)
            window = merge(scaled_windows)
        run.finish()
    finally:
        run.close()
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_dir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    attempted = sum(x.attempted for x in windows)
    warm_failed, failed_verify = run.warm_failed, run.verify_failed
    failed = sum(x.failed for x in windows) + warm_failed + failed_verify
    lat = sorted(raw.latencies)
    n = len(lat)
    tail = supported_tail(n)
    summary = [
        f"{name}: {raw.ops} ops in {raw.wall_s:.2f} s, {n} latency samples, "
        f"pooled p50 = {percentile(lat, 50) * 1e6 if n else float('nan'):.1f} us, "
        f"highest supported tail p{tail} = "
        f"{percentile(lat, tail) * 1e6 if tail else float('nan'):.1f} us (not scaled)",
        f"{name}: failed_op_ratio = {failed / attempted if attempted else 0.0:.6f} "
        f"({failed} of {attempted}; {warm_failed} in warm-up, "
        f"{failed_verify} failed verification)",
        f"{name}: idle_cpu_cores = {idle:.4f} cores over a {IDLE_S} s idle window",
        f"{name}: {run.clusters} cluster(s) loaded and verified",
        f"{name}: speed probe median {statistics.median(probes) * 1e3:.3f} ms over "
        f"{len(probes)} probes, min {min(probes) * 1e3:.3f}, max {max(probes) * 1e3:.3f}; "
        f"reference {REF_PROBE_S * 1e3:.3f} ms",
        f"{name}: setup_s samples = {[round(s, 4) for s in setup_s]}, "
        f"not scaled {[round(s, 4) for s in raw_setup_s]}",
    ]
    if tail is None or tail < 99:
        summary.append(f"{name}: only {n} samples: fewer than 10 lie beyond op_p99_us")

    if not args.trace:
        values = end_to_end(window, setup_s, rss_mb)
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
        summary.append(f"{name}: not scaled " + json.dumps(end_to_end(raw, raw_setup_s, rss_mb)))
        summary.append(
            f"{name}: resident {rss_mb[0][1]:.1f} MiB before the timed window, "
            f"{rss_mb[-1][1]:.1f} MiB after it, peak "
            f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB"
        )
    else:
        plain = merge(untraced)
        values = layers.layer_metrics(
            layers.TracedWindow(
                ops=window.ops,
                wall_s=window.wall_s,
                spans=tracer.rows(),
                client_spans=tracer.rows({threading.main_thread().ident}),
                counters=counts,
                threads_alive=run.threads_alive,
                idle_cpu_cores=idle,
                untraced_wall_s=plain.wall_s,
                untraced_ops=plain.ops,
            )
        )
        units = {m.name: m.unit for m in layers.LAYER_METRICS}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        summary.append(
            f"{name}: tracing overhead {values['trace.overhead_us_per_op']:.1f} us/op "
            f"({values['trace.overhead_pct']:.1f}%)"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, summary


def describe() -> dict:
    from dataclasses import asdict

    from perfbench.layers import LAYER_METRICS
    from perfbench.workloads import WORKLOADS

    return {
        "workloads": [asdict(w) for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": [asdict(m) for m in LAYER_METRICS],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or all")

    _pin()
    faulthandler.dump_traceback_later(HANG_GUARD_S * len(names), exit=True)
    print("# env " + json.dumps(environment(args), sort_keys=True))
    results = {}
    for name in names:
        result, summary = run_workload(name, args)
        for line in summary:
            print("# " + line)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"# {name}: " + json.dumps(result))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    faulthandler.cancel_dump_traceback_later()
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
