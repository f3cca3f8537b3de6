"""One pass: a wire file served through a fresh server, then checked.

A pass runs inside a child process of ``run.py`` (:func:`child_main`), so
every pass starts from a fresh interpreter, an empty partition cache and
dedup window, and has a peak RSS of its own.  Two kinds:

- **firehose** (closed loop): the source is pulled as fast as the
  server's bounded ``in_flight`` allows.  Gives throughput and CPU per
  cloud.  Closed-loop latency is ``in_flight / throughput`` by Little's
  law and is not reported.
- **paced** (open loop): a seeded Poisson schedule at the workload's
  fixed rate.  The source sleeps until request *i* is due and only then
  decodes record *i*; latency is ``emit_i - due_i``, so a stall is
  charged to every request it delays, and the source's own lateness is
  reported beside it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext

import numpy as np
import stats
import tracing
import workloads as wl

from repro import obs
from repro.infer import run_offline
from repro.runtime import BatchExecutor
from repro.serve import ServeReport

__all__ = [
    "PassLog",
    "arrival_schedule",
    "child_main",
    "count_failed",
    "parity_sample",
    "run_pass",
    "same_bits",
]

#: Result arrays compared bit for bit with the serial reference.
RESULT_ARRAYS = ("sampled", "neighbors", "grouped", "interpolated",
                 "model_output")


def arrival_schedule(rate: float, count: int, seed: int,
                     jittered: bool = False) -> np.ndarray:
    """Due times (seconds from pass start) of ``count`` open-loop
    arrivals at ``rate`` per second over ``count / rate`` seconds.

    Default: a Poisson process given its count, i.e. uniform order
    statistics — the bursts stay while the offered load is exactly
    ``rate`` (a free-running process of 19 arrivals would offer anything
    from 0.75 to 1.3 times the nominal load from seed to seed).

    ``jittered``: one arrival at a uniform instant of each ``1 / rate``
    slot.  For passes of a dozen heavy requests, where how many Poisson
    arrivals happen to collide decides the percentiles more than the
    program does.
    """
    rng = np.random.default_rng([seed, 0xA771])
    if jittered:
        return (np.arange(count) + rng.uniform(size=count)) / rate
    return np.sort(rng.uniform(0.0, count / rate, size=count))


def parity_sample(workload: wl.Workload, count: int, seed: int) -> set:
    """The seeded ``(stream, seq)`` requests compared with the reference."""
    streams = [f"t{i}" for i in range(max(1, len(workload.models)))]
    per_stream = count // len(streams)
    take = min(per_stream, max(1, workload.parity_sample // len(streams)))
    rng = np.random.default_rng([seed, 0x9A217])
    return {
        (stream, int(seq))
        for stream in streams
        for seq in rng.choice(per_stream, size=take, replace=False)
    }


class PassLog:
    """What the source handed to the server, per stream and in order."""

    def __init__(self, wanted: set):
        self.wanted = wanted
        self.points: dict[str, list[int]] = {}
        self.due: dict[str, list[float]] = {}
        self.late: list[float] = []
        self.clouds: dict[tuple, np.ndarray] = {}
        self.pulled_at: dict[int, float] = {}
        self.bytes = 0
        self.first_pull = 0.0

    def pull(self, stream: str, cloud: np.ndarray, due: float) -> None:
        sizes = self.points.setdefault(stream, [])
        key = (stream, len(sizes))
        if key in self.wanted:
            self.clouds[key] = cloud
        sizes.append(len(cloud))
        self.due.setdefault(stream, []).append(due)
        self.bytes += cloud.nbytes
        self.pulled_at[id(cloud)] = time.perf_counter()


def firehose_source(records, log: PassLog):
    log.first_pull = time.perf_counter()
    for stream, cloud in records:
        log.pull(stream, cloud, 0.0)
        yield stream, cloud


def paced_source(records, schedule, log: PassLog):
    """Sleep until request *i* is due, then decode record *i*."""
    log.first_pull = start = time.perf_counter()
    for offset in schedule:
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        log.late.append(max(0.0, time.perf_counter() - due))
        try:
            stream, cloud = next(records)
        except StopIteration:
            return
        log.pull(stream, cloud, due)
        yield stream, cloud


def count_failed(expected: dict, observed: dict) -> int:
    """Requests that did not come back exactly once, in submission order
    within their stream, with the right ``num_points``.

    ``expected[stream]`` is the pulled point counts in order;
    ``observed[stream]`` the emitted ``(seq, num_points)`` in order.
    Emissions nobody asked for count as failures too.
    """
    failed = 0
    for stream in sorted(set(expected) | set(observed)):
        points = expected.get(stream, [])
        good = [False] * len(points)
        seen: set[int] = set()
        high = -1
        for seq, num_points in observed.get(stream, []):
            if not 0 <= seq < len(points):
                failed += 1
            elif seq in seen:
                good[seq] = False
            else:
                good[seq] = seq > high and num_points == points[seq]
            seen.add(seq)
            high = max(high, seq)
        failed += good.count(False)
    return failed


def same_bits(left, right) -> bool:
    """Bit-for-bit equality of two arrays (``None`` only equals ``None``)."""
    if left is None or right is None:
        return left is None and right is None
    left, right = np.asarray(left), np.asarray(right)
    return (
        left.shape == right.shape
        and left.dtype == right.dtype
        and left.tobytes() == right.tobytes()
    )


def parity_failures(workload: wl.Workload, clouds: dict, results: dict) -> int:
    """Sampled requests whose served arrays differ from the serial
    reference (or that never came back)."""
    failed = 0
    with BatchExecutor("fractal", mode="serial", kernel="loop",
                       reuse_results=False) as reference:
        for key, cloud in sorted(clouds.items()):
            served = results.get(key)
            if served is None:
                failed += 1
                continue
            pipeline = wl.pipeline_for(workload, key[0])
            if pipeline.model is not None:
                expected = {"model_output": run_offline(pipeline.model, cloud)}
            else:
                expected = vars(reference.run_cloud(cloud, pipeline))
            failed += not all(
                same_bits(getattr(served, name), expected[name])
                for name in RESULT_ARRAYS
                if name in expected
            )
    return failed


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _server_report(server, wall: float) -> ServeReport:
    if hasattr(server, "reports"):
        return ServeReport.merge(server.reports(wall).values())
    if hasattr(server, "report"):
        return server.report(wall)
    return server.telemetry.report(wall)


def run_pass(
    workload: wl.Workload,
    wire: str,
    *,
    mode: str,
    count: int,
    seed: int,
    parity: bool = False,
    instrument: str = "none",
    trace_path: str | None = None,
) -> dict:
    """Serve the ``count`` requests of ``wire`` once and return the
    pass's measurements.

    ``instrument`` is ``none`` (every end-to-end number comes from such
    passes), ``bench`` (the benchmark's own span wrappers) or ``obs``
    (the program's tracer at 1/8 sampling, to price it).
    """
    wanted = parity_sample(workload, count, seed) if parity else set()
    log = PassLog(wanted)
    recorder = tracing.Recorder() if instrument == "bench" else None
    waits: list[float] = []

    def on_window(items) -> None:
        now = time.perf_counter()
        for _, coords, _ in items:
            pulled = log.pulled_at.get(id(coords))
            if pulled is not None:
                waits.append(now - pulled)

    emitted: list[tuple] = []
    kept: dict[tuple, object] = {}
    error = None
    if instrument == "obs":
        obs.configure(trace=True, sample=8)
    cpu_self = _cpu_seconds(resource.RUSAGE_SELF)
    cpu_children = _cpu_seconds(resource.RUSAGE_CHILDREN)
    threads = (
        tracing.instrument_threads(recorder)
        if recorder is not None
        else nullcontext()
    )
    with threads, open(wire, "rb") as fh, \
            wl.open_server(workload) as (server, serve):
        records = wl.open_source(workload, fh)
        if recorder is not None:
            pulls: dict[str, int] = {}

            def pull_id(item) -> str:
                seq = pulls[item[0]] = pulls.get(item[0], -1) + 1
                return f"{item[0]}:{seq}"

            records = tracing.trace_iter(recorder, records, "wire.decode",
                                         pull_id)
        if mode == "paced":
            schedule = arrival_schedule(workload.paced_rate, count, seed,
                                        jittered=workload.sparse)
            source = paced_source(records, schedule, log)
        else:
            source = firehose_source(records, log)
        traced = (
            tracing.instrument(recorder, server, on_window)
            if recorder is not None
            else nullcontext()
        )
        with traced:
            cpu_serve = _cpu_seconds(resource.RUSAGE_SELF)
            started = time.perf_counter()
            # The root span: its self time is the harness's own loop.
            root = recorder.begin("bench.loop") if recorder else None
            try:
                for stream, seq, result in serve(source):
                    emitted.append((
                        stream, seq, result.num_points, time.perf_counter(),
                        result.reused, result.partition_source,
                    ))
                    if (stream, seq) in wanted:
                        kept[(stream, seq)] = result
            except Exception as exc:  # the rest of the stream counts as failed
                error = f"{type(exc).__name__}: {exc}"
            if root is not None:
                recorder.end(root)
            ended = time.perf_counter()
            cpu_serve = _cpu_seconds(resource.RUSAGE_SELF) - cpu_serve
        report = _server_report(server, ended - started)
        shard_stats = getattr(server, "shard_stats", None)
    # Shard workers are reaped by the router's close(), so only now does
    # RUSAGE_CHILDREN hold their CPU time.
    cpu = (
        _cpu_seconds(resource.RUSAGE_SELF) - cpu_self
        + _cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children
    )
    if instrument == "obs":
        obs.drain()
        obs.configure(trace=False)

    observed: dict[str, list] = {}
    for stream, seq, num_points, *_ in emitted:
        observed.setdefault(stream, []).append((seq, num_points))
    failed = count_failed(log.points, observed)
    # Requests never pulled (the server raised, or the source stopped
    # early) were attempted and not served.
    failed += count - sum(len(sizes) for sizes in log.points.values())
    attempted = count
    if parity:
        attempted += len(log.clouds)
        failed += parity_failures(workload, log.clouds, kept)

    served = len(emitted)
    points = sum(row[2] for row in emitted)
    wall = (emitted[-1][3] if emitted else ended) - log.first_pull
    computed = [row for row in emitted if not row[4]]
    out = {
        "mode": mode,
        "instrument": instrument,
        "started_at": started,
        "requests": count,
        "served": served,
        "points": points,
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "wall_s": wall,
        "throughput_clouds_s": served / wall if wall > 0 else 0.0,
        "throughput_kpts_s": points / wall / 1e3 if wall > 0 else 0.0,
        "cpu_ms_per_cloud": cpu * 1e3 / served if served else 0.0,
        "wire_bytes": log.bytes,
        "reused_share": (served - len(computed)) / served if served else 0.0,
        "hit_share": (
            sum(row[5] == "warm" for row in computed) / len(computed)
            if computed else 0.0
        ),
        "windows": report.windows,
        "occupancy": report.mean_occupancy,
        "timeout_share": (
            report.timeout_windows / report.windows if report.windows else 0.0
        ),
        "fused_share": report.fused_ratio,
        "buckets_per_window": (
            report.buckets / report.windows if report.windows else 0.0
        ),
        "shard_stats": shard_stats,
    }
    if mode == "paced":
        latencies: dict[str, list[float]] = {}
        for stream, seq, _, at, *_ in emitted:
            if 0 <= seq < len(log.due.get(stream, [])):
                latencies.setdefault(stream, []).append(
                    (at - log.due[stream][seq]) * 1e3
                )
        out["latencies_ms"] = latencies
        out["late_p95_ms"] = (
            stats.percentile(log.late, 95) * 1e3 if log.late else 0.0
        )
        out["wait_p50_ms"] = (
            stats.percentile(waits, 50) * 1e3 if waits else 0.0
        )
    if recorder is not None:
        out["trace"] = tracing.summarize(recorder, cpu_serve)
        if trace_path:
            out["trace"]["events"] = recorder.write_chrome(trace_path)
    return out


def _warm_up(workload: wl.Workload, wire: str) -> None:
    """Serve a short stream of another seed through a throwaway server:
    imports, model weights and BLAS are paid before anything is timed."""
    with open(wire, "rb") as fh, wl.open_server(workload) as (_, serve):
        for _ in serve(wl.open_source(workload, fh)):
            pass


def child_main(config: dict) -> int:
    """Entry point of a pass process: warm up, run the passes (or the
    probes) the parent asked for, print one JSON line."""
    workload = wl.WORKLOADS[config["workload"]]
    if "probe" in config:  # the replay probes instead of passes
        import probes

        clouds = probes.probe_clouds(workload, config["probe"])
        json.dump(probes.run_probes(workload, clouds), sys.stdout)
        sys.stdout.write("\n")
        return 0
    _warm_up(workload, config["warm"])
    passes = [run_pass(workload, **spec) for spec in config["passes"]]
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    json.dump(
        {
            # Interpreter start, imports, warm-up and server build, up to
            # the first timed request.
            "startup_s": passes[0]["started_at"] - config["spawned_at"],
            "peak_rss_mb": peak_kb / 1024.0,
            "passes": passes,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0
