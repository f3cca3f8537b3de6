"""Metric names, units and bounds, and how a run's passes become them.

``BENCHMARK.json`` at the repository root lists the same names; the
self-tests hold the two together.
"""

from __future__ import annotations

import stats
import workloads as wl

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer"]

#: name -> (unit, better, regression bound as a share of the parent's
#: median).  The time-based bounds are as wide as the contract allows:
#: this box's CPU speed moves by +-20 % over tens of seconds (README,
#: "Steadiness"), and a bound narrower than the run-to-run spread would
#: flag the machine, not the commit.
END_TO_END = {
    "throughput_clouds_s": ("clouds/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "cpu_ms_per_cloud": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

OPS = ("fps", "ball_query", "gather", "knn", "interpolate")
MODELS = wl.WORKLOADS["infer_tenants"].models

#: name -> (unit, better).  A layer that is not on a workload's serving
#: path reads 0 there.
PER_LAYER = {
    "wire.decode_us_per_cloud": ("us", "lower"),
    "wire.decode_mb_s": ("MB/s", "higher"),
    "loadgen.late_p95_ms": ("ms", "lower"),
    "cache.result_key_us_per_cloud": ("us", "lower"),
    "cache.acquire_cold_ms_per_kpt": ("ms", "lower"),
    "cache.acquire_warm_us": ("us", "lower"),
    "cache.hit_share": ("fraction", "higher"),
    "dedup.reused_share": ("fraction", "higher"),
    "partition.build_ms_per_kpt": ("ms", "lower"),
    "partition.blocks_per_kpt": ("count", "lower"),
    **{f"op.{op}.ms_per_kpt": ("ms", "lower") for op in OPS},
    **{f"dispatch.{op}.regret_pct": ("%", "lower") for op in OPS},
    "dispatch.build.regret_pct": ("%", "lower"),
    "dispatch.agg.regret_pct": ("%", "lower"),
    "engine.window_ms": ("ms", "lower"),
    "engine.self_ms_per_cloud": ("ms", "lower"),
    "engine.fused_share": ("fraction", "higher"),
    "engine.buckets_per_window": ("count", "lower"),
    "window.self_ms_per_cloud": ("ms", "lower"),
    "window.occupancy": ("fraction", "higher"),
    "window.timeout_share": ("fraction", "lower"),
    "window.wait_p50_ms": ("ms", "lower"),
    "tenancy.self_ms_per_cloud": ("ms", "lower"),
    "tenancy.clouds_per_drain": ("count", "higher"),
    "tenancy.latency_spread": ("ratio", "lower"),
    "router.submit_us_per_cloud": ("us", "lower"),
    "router.max_shard_share": ("fraction", "lower"),
    "router.shard_busy_share": ("fraction", "lower"),
    "shard.clouds_per_window": ("count", "higher"),
    "transport.pack_us_per_mb": ("us", "lower"),
    "transport.unpack_us_per_mb": ("us", "lower"),
    "transport.spilled": ("count", "lower"),
    **{f"model.{model}.ms_per_cloud": ("ms", "lower") for model in MODELS},
    "model.fused_ms_per_cloud": ("ms", "lower"),
    "obs.sampled_overhead_pct": ("%", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
    "bench.trace_coverage": ("ratio", "higher"),
}

#: The traced run fails when the spans' self times do not add up to the
#: CPU time of the process within this tolerance.
COVERAGE_TOLERANCE = 0.10


def _median(values) -> float:
    return stats.quartiles(values)[1]


def _all_streams(latencies: dict) -> list[float]:
    return [ms for per_stream in latencies.values() for ms in per_stream]


def _totals(passes) -> tuple[int, int]:
    return (sum(p["attempted"] for p in passes),
            sum(p["failed"] for p in passes))


def end_to_end(workload: wl.Workload, rounds: list[dict],
               generate_s: float) -> dict:
    """The untraced run: medians over the rounds' firehose and paced
    passes, in the shape the acceptance driver reads."""
    firehose = [r["passes"][0] for r in rounds]
    paced = [r["passes"][1] for r in rounds]
    samples = [_all_streams(p["latencies_ms"]) for p in paced]
    if workload.sparse:
        samples = [[ms for one in samples for ms in one]]
    # The rule is held against the requests scheduled, so a run that
    # loses requests still reports (as incorrect) instead of raising.
    stats.require_tail(
        paced[0]["requests"] * len(paced) // len(samples), workload.tail)
    values = {
        "throughput_clouds_s": _median(
            p["throughput_clouds_s"] for p in firehose),
        "latency_p50_ms": _median(stats.percentile(one, 50) for one in samples),
        "latency_tail_ms": _median(
            stats.percentile(one, workload.tail) for one in samples),
        "cpu_ms_per_cloud": _median(p["cpu_ms_per_cloud"] for p in firehose),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in rounds),
        "setup_s": generate_s + _median(r["startup_s"] for r in rounds),
    }
    attempted, failed = _totals(firehose + paced)
    per_round = {
        "throughput_clouds_s": [p["throughput_clouds_s"] for p in firehose],
        "throughput_kpts_s": [p["throughput_kpts_s"] for p in firehose],
        "cpu_ms_per_cloud": [p["cpu_ms_per_cloud"] for p in firehose],
        **{
            f"latency_p{p}_ms": [stats.percentile(one, p) for one in samples]
            for p in (50, 70, 80, 90, 95)
        },
        "late_p95_ms": [p["late_p95_ms"] for p in paced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "startup_s": [r["startup_s"] for r in rounds],
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": END_TO_END[name][0]}
            for name in END_TO_END
        },
        "detail": {
            "failed_share": failed / attempted,
            "tail_percentile": workload.tail,
            "firehose_clouds": firehose[0]["requests"],
            "paced_clouds": paced[0]["requests"],
            "paced_samples": sum(len(one) for one in samples),
            "generate_s": generate_s,
            "errors": [p["error"] for p in firehose + paced if p["error"]],
            "per_round": per_round,
            "quartiles": {
                name: stats.summary(series)
                for name, series in per_round.items()
            },
        },
    }


def per_layer(workload: wl.Workload, children: list[dict],
              probed: dict) -> dict:
    """The traced run: spans of the traced firehose passes, counters of
    the traced paced pass, and the replay probes, under the names of
    :data:`PER_LAYER`."""
    passes = [child["passes"][0] for child in children]
    plain = [p for p in passes
             if p["mode"] == "firehose" and p["instrument"] == "none"]
    traced = [p for p in passes
              if p["mode"] == "firehose" and p["instrument"] == "bench"]
    paced = next(p for p in passes if p["mode"] == "paced")
    sampled = [p for p in passes if p["instrument"] == "obs"]

    served = sum(p["served"] for p in traced)
    kpts = sum(p["points"] for p in traced) / 1e3
    layers: dict[str, dict] = {}
    for one in traced:
        for name, row in one["trace"]["layers"].items():
            total = layers.setdefault(name, {})
            for key, value in row.items():
                total[key] = total.get(key, 0) + value

    def self_s(*names) -> float:
        return sum(layers.get(name, {}).get("self_s", 0.0) for name in names)

    def spans(name) -> int:
        return layers.get(name, {}).get("spans", 0)

    probe = probed["metrics"]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({k: v for k, v in probe.items() if k in PER_LAYER})

    decode = self_s("wire.decode")
    values["wire.decode_us_per_cloud"] = decode * 1e6 / served
    values["wire.decode_mb_s"] = (
        sum(p["wire_bytes"] for p in traced) / 1e6 / decode if decode else 0.0
    )
    values["loadgen.late_p95_ms"] = paced["late_p95_ms"]
    values["cache.hit_share"] = _median(p["hit_share"] for p in traced)
    values["dedup.reused_share"] = _median(p["reused_share"] for p in traced)

    # In situ where the traced pass saw the layer; the replay probe where
    # it runs out of reach (in the shard workers, or behind a name the
    # benchmark cannot wrap).
    cold = layers.get("cache.acquire.cold")
    if cold:
        values["cache.acquire_cold_ms_per_kpt"] = (
            cold["self_s"] * 1e3 / (cold["points"] / 1e3)
        )
    warm = layers.get("cache.acquire.warm")
    if warm:
        values["cache.acquire_warm_us"] = warm["self_s"] * 1e6 / warm["spans"]
    for op in OPS:
        values[f"op.{op}.ms_per_kpt"] = (
            self_s(f"op.{op}") * 1e3 / kpts
            if spans(f"op.{op}")
            else probe.get(f"probe.op.{op}.ms_per_kpt", 0.0)
        )

    windows = layers.get("engine.window")
    stats_by_shard = [p["shard_stats"] for p in traced if p["shard_stats"]]
    if windows:
        values["engine.window_ms"] = windows["cpu_s"] * 1e3 / windows["spans"]
        values["engine.self_ms_per_cloud"] = windows["self_s"] * 1e3 / served
        distinct = windows["fused"] + windows["singletons"]
        values["engine.fused_share"] = (
            windows["fused"] / distinct if distinct else 0.0
        )
        values["engine.buckets_per_window"] = (
            windows["buckets"] / windows["spans"]
        )
    elif stats_by_shard:
        # The engines run in the shard workers: their windows are seen
        # through the router's public counters only, children included.
        shards = [s for one in stats_by_shard for s in one.values()]
        busy = sum(s["busy_seconds"] for s in shards)
        executed = sum(s["windows"] for s in shards)
        values["engine.window_ms"] = busy * 1e3 / executed
        values["engine.self_ms_per_cloud"] = busy * 1e3 / served
        values["engine.fused_share"] = _median(p["fused_share"] for p in traced)
        values["engine.buckets_per_window"] = _median(
            p["buckets_per_window"] for p in traced)
        values["router.max_shard_share"] = _median(
            max(s["served"] for s in one.values()) / p["served"]
            for p, one in zip(traced, stats_by_shard))
        values["router.shard_busy_share"] = _median(
            max(s["busy_seconds"] for s in one.values()) / p["wall_s"]
            for p, one in zip(traced, stats_by_shard))
        values["shard.clouds_per_window"] = (
            sum(s["served"] for s in shards) / executed
        )
        values["transport.spilled"] = float(sum(s["spilled"] for s in shards))

    values["window.self_ms_per_cloud"] = self_s("window.serve") * 1e3 / served
    values["window.occupancy"] = paced["occupancy"]
    values["window.timeout_share"] = paced["timeout_share"]
    values["window.wait_p50_ms"] = paced["wait_p50_ms"]
    values["tenancy.self_ms_per_cloud"] = self_s(
        "tenancy.serve", "tenancy.drain", "tenancy.submit") * 1e3 / served
    if spans("tenancy.drain"):
        values["tenancy.clouds_per_drain"] = served / spans("tenancy.drain")
        medians = [stats.percentile(one, 50)
                   for one in paced["latencies_ms"].values()]
        values["tenancy.latency_spread"] = max(medians) / min(medians)
    values["router.submit_us_per_cloud"] = (
        self_s("router.submit") * 1e6 / served
    )
    values["model.fused_ms_per_cloud"] = (
        self_s("model.fused", "model.forward") * 1e3 / served
    )

    speed = _median(p["throughput_clouds_s"] for p in plain)
    values["bench.trace_overhead_pct"] = (
        speed / _median(p["throughput_clouds_s"] for p in traced) - 1.0
    ) * 100.0
    if sampled:
        values["obs.sampled_overhead_pct"] = (
            speed / sampled[0]["throughput_clouds_s"] - 1.0
        ) * 100.0
    coverage = _median(p["trace"]["coverage"] for p in traced)
    values["bench.trace_coverage"] = coverage

    attempted, failed = _totals(passes)
    attempted += 1  # the probes' equal-results assertions, as one check
    failed += bool(probed["mismatches"])
    covered = abs(coverage - 1.0) <= COVERAGE_TOLERANCE
    self_total = sum(row["self_s"] for row in layers.values())
    return {
        "correct": failed == 0 and covered,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER
        },
        "detail": {
            "coverage_ok": covered,
            "errors": [p["error"] for p in passes if p["error"]],
            "self_time_share": {
                name: row["self_s"] / self_total
                for name, row in sorted(layers.items())
            },
            "layers": layers,
            "probes": probed["detail"],
            "probe_mismatches": probed["mismatches"],
            "paced": {k: paced[k] for k in
                      ("occupancy", "timeout_share", "late_p95_ms",
                       "wait_p50_ms", "windows")},
        },
    }
