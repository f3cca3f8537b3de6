"""Command-line interface: ``python -m repro <command>``.

Six subcommands cover the common workflows without writing any code:

- ``partition`` — partition a generated (or .npy) cloud with any
  strategy and print the block statistics.
- ``simulate`` — run a Table I workload at a scale on any accelerator
  (or the GPU model) and print latency/energy/breakdown.
- ``compare`` — the Fig. 13-style table for one workload across scales.
- ``batch-run`` — push a batch of clouds through the
  :class:`~repro.runtime.executor.BatchExecutor` engine and print
  per-cloud results plus aggregate throughput.
- ``loadgen`` — emit a seeded serving-shaped cloud stream (ragged sizes,
  duplicate frames, bursts; uniform / diurnal / adversarial profiles;
  ``--tenants N`` for a tagged multi-tenant mix) as concatenated
  ``.npy`` records.
- ``serve`` — consume a cloud stream (``loadgen`` output, a file, or
  built-in traffic) through the windowed micro-batching server with
  live latency telemetry: ``repro loadgen | repro serve``.
  ``--tenants N`` serves N sessions through one shared engine with
  deficit-round-robin fairness and cross-tenant fusion;
  ``--shards N`` replaces the in-process server with the sharded
  front-end (:mod:`repro.shard`): a consistent-hash router over N
  engine worker processes with shared-memory array transport
  (``--transport shm|pickle``, ``--affinity content|stream``).
  ``--trace out.json`` records an end-to-end span tree (router →
  worker → engine → kernels) as Chrome ``trace_event`` JSON;
  ``--metrics`` dumps the Prometheus exposition at exit.
  ``--model <name>`` serves full network inference through the fused
  engine (``--agg delayed|eager`` picks the set-abstraction
  aggregation order; outputs are bit-identical either way).
- ``trace`` — offline trace tooling: ``repro trace summarize out.json``
  prints the per-stage self-time breakdown (build/patch vs. per-op
  kernels vs. transport vs. queueing) and gates on stage-total
  coverage of the traced wall time.
- ``lint`` — the project-invariant static analyzer
  (:mod:`repro.analysis.lint`): AST rules REP001-REP008 over files or
  trees, exit 1 on findings.  CI gates on ``repro lint src`` staying
  clean.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import obs

from .analysis import format_table
from .core.delta import PatchPolicy
from .core.dispatch import KERNEL_NAMES
from .datasets import DATASET_NAMES, load_cloud, scale_points
from .hw import AcceleratorSim, GPUModel, SOTA_CONFIGS
from .infer import MODEL_NAMES, model_spec
from .networks import WORKLOADS, get_workload
from .partition import PARTITIONER_NAMES, get_partitioner, summarize
from .runtime import BatchExecutor, PipelineSpec
from .serve import (
    LoadSpec,
    MultiTenantServer,
    ServeReport,
    ServeTelemetry,
    TenantSpec,
    WindowConfig,
    WindowedServer,
    generate,
    generate_tenants,
    read_stream,
    read_tenant_stream,
    tenant_specs,
    write_stream,
    write_tenant_stream,
)

__all__ = ["main"]


def _cmd_partition(args: argparse.Namespace) -> int:
    if args.input:
        coords = np.load(args.input)
    else:
        coords = load_cloud(args.dataset, args.points, args.seed).coords
    coords = np.asarray(coords, dtype=np.float64)
    rows = []
    strategies = args.strategy.split(",") if args.strategy else list(PARTITIONER_NAMES)
    for name in strategies:
        structure = get_partitioner(name, max_points_per_block=args.block_size)(coords)
        rows.append(summarize(structure).row())
    print(format_table(
        ["strategy", "blocks", "max", "mean", "balance", "underfilled",
         "sorts", "traversals", "levels"],
        rows,
        title=f"partitioning {len(coords):,} points (BS = {args.block_size})",
    ))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = get_workload(args.workload)
    n = scale_points(args.points)
    if args.accelerator == "GPU":
        result = GPUModel().run(spec, n)
    else:
        result = AcceleratorSim(SOTA_CONFIGS[args.accelerator]).run(spec, n)
    print(f"{result.platform}: {spec.key} @ {n:,} points")
    print(f"  latency {result.latency_s * 1e3:.3f} ms   "
          f"energy {result.energy_j * 1e3:.3f} mJ   "
          f"DRAM {result.dram_bytes / 1e6:.1f} MB")
    rows = [
        [phase, f"{stats.seconds * 1e3:.4f}", f"{stats.energy_j * 1e3:.4f}"]
        for phase, stats in sorted(
            result.phases.items(), key=lambda kv: -kv[1].seconds
        )
    ]
    print(format_table(["phase", "ms", "mJ"], rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = get_workload(args.workload)
    scales = [scale_points(s) for s in args.scales.split(",")]
    gpu = GPUModel()
    sims = {name: AcceleratorSim(cfg) for name, cfg in SOTA_CONFIGS.items()}
    rows = []
    for n in scales:
        g = gpu.run(spec, n)
        row = [n, f"{g.latency_s * 1e3:.1f}"]
        for name, sim in sims.items():
            r = sim.run(spec, n)
            row.append(f"{g.latency_s / r.latency_s:.1f}x")
        rows.append(row)
    print(format_table(
        ["points", "GPU ms"] + list(sims), rows,
        title=f"speedup over GPU — {spec.key}",
    ))
    return 0


def _cmd_batch_run(args: argparse.Namespace) -> int:
    if args.size_spread > 0:
        rng = np.random.default_rng(args.seed)
        sizes = rng.integers(
            max(1, args.points - args.size_spread),
            args.points + args.size_spread + 1,
            size=args.clouds,
        )
    else:
        sizes = [args.points] * args.clouds
    clouds = [
        load_cloud(args.dataset, int(n), args.seed + i).coords
        for i, n in enumerate(sizes)
    ]
    kernel = "loop" if args.no_batched_ops else args.kernel
    engine = BatchExecutor(
        args.partitioner,
        block_size=args.block_size,
        max_workers=args.workers,
        mode=args.mode,
        kernel=kernel,
        fuse=args.fuse,
        fuse_max_points=args.fuse_max_points if args.fuse_max_points > 0 else None,
        fuse_max_spread=args.fuse_max_spread if args.fuse_max_spread > 0 else None,
    )
    pipeline = PipelineSpec(
        sample_ratio=args.sample_ratio,
        radius=args.radius,
        group_size=args.group_size,
    )
    report = engine.run(clouds, pipeline)
    rows = [
        [r.index, f"{r.num_points:,}", r.num_blocks, len(r.sampled),
         "reuse" if r.reused else ("hit" if r.cache_hit else "miss"),
         f"{r.seconds * 1e3:.2f}"]
        for r in report.results
    ]
    stats = report.stats
    print(format_table(
        ["cloud", "points", "blocks", "samples", "cache", "ms"],
        rows,
        title=f"batch-run: {stats.clouds} clouds on {args.partitioner} "
              f"({engine.mode}, {engine.max_workers} workers, "
              f"kernel={engine.kernel}"
              f"{', fused' if args.fuse else ''})",
    ))
    print(f"  {stats.summary()}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    spec = LoadSpec(
        clouds=args.clouds,
        min_points=args.min_points,
        max_points=args.max_points,
        dup_rate=args.dup_rate,
        dup_window=args.dup_window,
        burst=args.burst,
        interval=args.interval,
        dataset=args.dataset,
        seed=args.seed,
        profile=args.profile,
        drift_period=args.drift_period,
        drift_amplitude=args.drift_amplitude,
        frame_motion=args.frame_motion,
        frame_churn=args.frame_churn,
        hot_assets=args.hot_assets,
        hot_rate=args.hot_rate,
        corrupt_rate=args.corrupt_rate,
        corrupt_severity=args.corrupt_severity,
    )
    if args.tenants > 0:
        specs = tenant_specs(args.tenants, spec)
        pairs = generate_tenants(specs, pace=spec.interval > 0)

        def write(fh):
            return write_tenant_stream(fh, pairs)
    else:
        def write(fh):
            return write_stream(fh, generate(spec))

    if args.out == "-":
        count = write(sys.stdout.buffer)
    else:
        with open(args.out, "wb") as fh:
            count = write(fh)
    # stdout may be the wire; human chatter goes to stderr.
    tenants = f", {args.tenants} tenants" if args.tenants > 0 else ""
    print(
        f"loadgen: wrote {count} clouds "
        f"({spec.min_points}-{spec.max_points} points, "
        f"{spec.profile} profile, dup rate {spec.dup_rate}, "
        f"seed {spec.seed}{tenants})",
        file=sys.stderr,
    )
    return 0


def _obs_configure(args: argparse.Namespace) -> None:
    """Arm the process-global tracer/registry from the serve flags.

    Must run before the engine or router is built: the router captures
    ``obs.enabled()`` when it forks its shard workers.
    """
    obs.configure(
        trace=bool(args.trace),
        sample=max(1, args.trace_sample),
        metrics=args.metrics,
    )


def _obs_dump(args: argparse.Namespace) -> None:
    """Write the trace file / print the metrics exposition after serving."""
    if args.trace:
        from .obs import export

        spans = obs.drain()
        export.write_trace(spans, args.trace)
        print(f"trace: wrote {len(spans)} spans to {args.trace}",
              file=sys.stderr)
    if args.metrics:
        print(obs.metrics().render(), end="")


def _serve_sharded(args: argparse.Namespace, source, tenants: int) -> int:
    """``repro serve --shards N``: the consistent-hash router front-end.

    Tagged (multi-tenant) streams route by their stream tag under
    ``--affinity stream``; untagged traffic defaults to content affinity
    so hot assets pin to shards.  Results stay bit-identical to the
    single-process server over the same stream.
    """
    from .shard import ShardRouter

    engine_kwargs = dict(
        partitioner=args.partitioner,
        block_size=args.block_size,
        kernel=args.kernel,
        fuse_max_points=args.fuse_max_points if args.fuse_max_points > 0 else None,
        fuse_max_spread=args.fuse_max_spread if args.fuse_max_spread > 0 else None,
        delta=args.delta,
        delta_policy=(
            PatchPolicy(motion_threshold=args.motion_threshold)
            if args.delta
            else None
        ),
    )
    pipeline = PipelineSpec(
        sample_ratio=args.sample_ratio,
        radius=args.radius,
        group_size=args.group_size,
        model=args.model or None,
        agg=args.agg,
    )
    router = ShardRouter(
        args.shards,
        engine=engine_kwargs,
        pipeline=pipeline,
        transport=args.transport,
        affinity=args.affinity,
        arena_bytes=args.arena_mb << 20,
        max_clouds=args.window,
        max_in_flight=args.in_flight if args.in_flight > 0 else 4 * args.shards,
        telemetry=ServeTelemetry(
            window_capacity=args.window, every=args.stats_every
        ),
    )
    print(
        f"serve: {args.shards} shards over {args.transport} transport "
        f"({router.affinity} affinity) on {args.partitioner} "
        f"(window {args.window}, in-flight {router.max_in_flight}"
        + (", delta" if args.delta else "")
        + (f", {tenants} tenants" if tenants else "")
        + (f", model {args.model} [{args.agg}]" if args.model else "")
        + ")"
    )
    start = obs.now()
    served = 0
    points = 0
    with router:
        for result in router.serve(source):
            served += 1
            points += result.result.num_points
        wall = obs.now() - start
        print(router.report(wall).format())
        shares = ", ".join(
            f"{name} {stats['served']}"
            for name, stats in router.shard_stats.items()
        )
        print(f"  shard share: {shares}")
    print(f"served {served} clouds total | {points / wall / 1e3:.0f}K points/s")
    _obs_dump(args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    tenants = max(0, args.tenants)
    # Validate model names before any stream is consumed: a typo must
    # fail fast, not after the loadgen pipe starts flowing.
    models = [name for name in (args.model or "").split(",") if name]
    try:
        for name in models:
            model_spec(name)
    except ValueError as err:
        print(f"serve: {err}", file=sys.stderr)
        return 2
    if len(models) > 1 and tenants == 0:
        print(
            "serve: a comma list of models needs --tenants (models are "
            "assigned one per tenant, round-robin)",
            file=sys.stderr,
        )
        return 2
    if len(models) > 1 and args.shards > 0:
        print(
            "serve: --shards serves one pipeline; pass a single --model",
            file=sys.stderr,
        )
        return 2
    _obs_configure(args)
    close = None
    if args.input is None:
        # Built-in traffic only: the loadgen knobs are ignored (and not
        # validated) when a stream is piped or read from a file.
        load = LoadSpec(
            clouds=args.clouds,
            min_points=args.min_points,
            max_points=args.max_points,
            dup_rate=args.dup_rate,
            interval=args.interval,
            dataset=args.dataset,
            seed=args.seed,
        )
        if tenants:
            source = generate_tenants(
                tenant_specs(tenants, load), pace=load.interval > 0
            )
        else:
            source = generate(load)
    elif args.input == "-":
        source = (
            read_tenant_stream(sys.stdin.buffer)
            if tenants
            else read_stream(sys.stdin.buffer)
        )
    else:
        close = open(args.input, "rb")
        source = read_tenant_stream(close) if tenants else read_stream(close)
    if args.shards > 0:
        try:
            return _serve_sharded(args, source, tenants)
        finally:
            if close is not None:
                close.close()
    engine = BatchExecutor(
        args.partitioner,
        block_size=args.block_size,
        max_workers=args.workers,
        in_flight=args.in_flight if args.in_flight != 0 else None,
        kernel=args.kernel,
        fuse_max_points=args.fuse_max_points if args.fuse_max_points > 0 else None,
        fuse_max_spread=args.fuse_max_spread if args.fuse_max_spread > 0 else None,
        delta=args.delta,
        delta_policy=(
            PatchPolicy(motion_threshold=args.motion_threshold)
            if args.delta
            else None
        ),
    )
    pipeline = PipelineSpec(
        sample_ratio=args.sample_ratio,
        radius=args.radius,
        group_size=args.group_size,
        model=models[0] if models else None,
        agg=args.agg,
    )
    window = WindowConfig(
        max_clouds=args.window, max_wait=args.max_wait_ms / 1e3
    )
    print(
        f"serve: window {args.window} clouds / {args.max_wait_ms:.0f} ms "
        f"on {args.partitioner} ({engine.mode}, "
        f"{engine.max_workers} workers, kernel={engine.kernel}, "
        f"in-flight {engine.in_flight}"
        + (", delta" if args.delta else "")
        + (f", {tenants} tenants" if tenants else "")
        + (f", model {','.join(models)} [{args.agg}]" if models else "")
        + ")"
    )
    start = obs.now()
    served = 0
    points = 0
    try:
        if tenants:
            # With several models, tenants round-robin over the list;
            # tenants sharing a model share one PipelineSpec and still
            # fuse into the same window groups.
            server = MultiTenantServer(
                engine,
                [
                    TenantSpec(
                        f"t{i}",
                        dataclasses.replace(
                            pipeline, model=models[i % len(models)]
                        )
                        if models
                        else pipeline,
                    )
                    for i in range(tenants)
                ],
                window=window,
                quantum_points=args.quantum_points,
                telemetry_every=args.stats_every,
            )
            with server:
                for served_result in server.serve(source, on_stats=print):
                    served += 1
                    points += served_result.result.num_points
            wall = obs.now() - start
            reports = server.reports(wall)
            for name, report in reports.items():
                print(report.format())
            if len(reports) > 1:
                print(ServeReport.merge(reports.values()).format())
        else:
            telemetry = ServeTelemetry(
                window_capacity=args.window, every=args.stats_every
            )
            server = WindowedServer(engine, window, telemetry=telemetry)
            with server:
                for result in server.serve(source, pipeline, on_stats=print):
                    served += 1
                    points += result.num_points
            wall = obs.now() - start
            print(telemetry.report(wall).format())
    finally:
        if close is not None:
            close.close()
    print(f"served {served} clouds total | {points / wall / 1e3:.0f}K points/s")
    _obs_dump(args)
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Per-stage breakdown of a ``--trace`` file, with a coverage gate.

    The summarizer charges each span its self time, so the stage total
    equals the traced wall time when the tree is well formed; coverage
    drifting outside ``1 ± --tolerance`` means dropped or orphaned
    spans and exits 1.
    """
    from .obs import export

    spans = export.load_trace(args.path)
    if not spans:
        print(f"trace: no spans in {args.path}", file=sys.stderr)
        return 1
    summary = export.summarize(spans)
    rows = [
        [row.stage, row.spans, f"{row.seconds * 1e3:.2f}", f"{row.share:.1%}"]
        for row in summary.rows
    ]
    print(format_table(
        ["stage", "spans", "ms", "share"], rows,
        title=f"trace summary — {len(spans)} spans, "
              f"{summary.traces} traces",
    ))
    print(
        f"  stage total {summary.stage_seconds * 1e3:.2f} ms | "
        f"traced wall {summary.wall_seconds * 1e3:.2f} ms | "
        f"coverage {summary.coverage:.3f}"
    )
    if abs(summary.coverage - 1.0) > args.tolerance:
        print(
            f"trace: coverage {summary.coverage:.3f} outside "
            f"1 ± {args.tolerance} — spans were dropped or orphaned",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the linter pulls in nothing heavy, but keeping it
    # out of module scope means `repro serve` never pays for it either.
    from .analysis.lint import main as lint_main

    argv = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.statistics:
        argv.append("--statistics")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FractalCloud reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a cloud, print block stats")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="s3dis")
    p.add_argument("--points", type=int, default=33_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--block-size", type=int, default=256)
    p.add_argument("--strategy", help="comma list (default: all)")
    p.add_argument("--input", help=".npy file of (n, 3) coordinates")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("simulate", help="simulate one workload on one platform")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="PNXt(s)")
    p.add_argument("--points", default="33K", help="count or scale label (33K)")
    p.add_argument("--accelerator", choices=list(SOTA_CONFIGS) + ["GPU"],
                   default="FractalCloud")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="speedup-vs-GPU table across scales")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="PNXt(s)")
    p.add_argument("--scales", default="8K,33K,131K,289K")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("batch-run", help="run the batched executor over many clouds")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="s3dis")
    p.add_argument("--clouds", type=int, default=16)
    p.add_argument("--points", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partitioner", choices=PARTITIONER_NAMES, default="fractal")
    p.add_argument("--block-size", type=int, default=256)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--mode", choices=["thread", "process", "serial"], default="thread")
    p.add_argument("--sample-ratio", type=float, default=0.25)
    p.add_argument("--radius", type=float, default=0.2)
    p.add_argument("--group-size", type=int, default=16)
    p.add_argument("--kernel", choices=KERNEL_NAMES, default="auto",
                   help="block-op implementation: 'loop' = per-block serial "
                        "reference (large blocks), 'ragged' = fused CSR "
                        "segment kernels over every block at once (small "
                        "and mid-size blocks), 'auto' = cost-model dispatch "
                        "per call from block statistics; all are "
                        "bit-identical (an explicit choice here beats "
                        "REPRO_KERNEL, which only fills in for 'auto')")
    p.add_argument("--fuse", action="store_true",
                   help="size-bucket the batch and fuse each bucket into one "
                        "ragged problem per pipeline stage (mixed sizes "
                        "welcome; bit-identical to the unfused path)")
    p.add_argument("--fuse-max-points", type=int, default=262_144,
                   help="fuse-group budget: max total points per fused "
                        "bucket (0 = unbounded)")
    p.add_argument("--fuse-max-spread", type=float, default=4.0,
                   help="max largest/smallest cloud-size ratio inside one "
                        "fused bucket (0 = unbounded)")
    p.add_argument("--size-spread", type=int, default=0,
                   help="draw cloud sizes uniformly from points±spread "
                        "instead of a fixed size (ragged serving streams)")
    p.add_argument("--no-batched-ops", action="store_true",
                   help="legacy alias for --kernel loop")
    p.set_defaults(func=_cmd_batch_run)

    p = sub.add_parser(
        "loadgen",
        help="emit a seeded serving-shaped cloud stream as .npy records",
    )
    p.add_argument("--clouds", type=int, default=64)
    p.add_argument("--min-points", type=int, default=64)
    p.add_argument("--max-points", type=int, default=256)
    p.add_argument("--dup-rate", type=float, default=0.2,
                   help="probability a frame exactly repeats a recent one")
    p.add_argument("--dup-window", type=int, default=8,
                   help="repeats are drawn from the last N distinct frames")
    p.add_argument("--burst", type=int, default=1,
                   help="frames per arrival burst")
    p.add_argument("--interval", type=float, default=0.0,
                   help="seconds between bursts (0 = firehose)")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="modelnet40")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile",
                   choices=["uniform", "diurnal", "adversarial", "frames",
                            "hotset", "inference"],
                   default="uniform",
                   help="traffic shape: 'diurnal' drifts sizes/pacing "
                        "sinusoidally, 'adversarial' emits spread mixes "
                        "that defeat best-fit-decreasing packing, 'frames' "
                        "evolves one sensor cloud per frame (bounded "
                        "motion + tail churn — the delta-protocol stream), "
                        "'hotset' draws a --hot-rate fraction of requests "
                        "from a fixed catalog of --hot-assets clouds (the "
                        "content-affine sharding workload), 'inference' "
                        "emits classification-style clouds, a --corrupt-"
                        "rate fraction perturbed by a random corruption "
                        "(the 'repro serve --model' workload)")
    p.add_argument("--drift-period", type=int, default=64,
                   help="diurnal cycle length in clouds")
    p.add_argument("--drift-amplitude", type=float, default=0.5,
                   help="diurnal swing fraction in [0, 1]")
    p.add_argument("--frame-motion", type=float, default=0.02,
                   help="frames profile: per-point displacement bound per "
                        "frame (uniform in a ball of this radius)")
    p.add_argument("--frame-churn", type=float, default=0.1,
                   help="frames profile: fraction of the tail replaced by "
                        "fresh returns each frame, in [0, 1)")
    p.add_argument("--hot-assets", type=int, default=16,
                   help="hotset profile: size of the fixed asset catalog")
    p.add_argument("--hot-rate", type=float, default=0.8,
                   help="hotset profile: fraction of requests drawn from "
                        "the catalog (the rest are one-off cold clouds)")
    p.add_argument("--corrupt-rate", type=float, default=0.25,
                   help="inference profile: probability each fresh cloud "
                        "is perturbed by a dataset corruption")
    p.add_argument("--corrupt-severity", type=int, default=3,
                   help="inference profile: corruptions draw a severity "
                        "uniformly from [1, this] (max 5)")
    p.add_argument("--tenants", type=int, default=0,
                   help="emit a tagged multi-tenant stream: N per-tenant "
                        "rate/size mixes derived from the options above, "
                        "each tenant emitting --clouds clouds "
                        "(pipe into 'repro serve --tenants N')")
    p.add_argument("--out", default="-",
                   help="output file ('-' = stdout, pipe into 'repro serve')")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "serve",
        help="windowed micro-batching server over a cloud stream",
    )
    p.add_argument("--input",
                   help="cloud stream to serve: a loadgen file or '-' for "
                        "stdin; omit to generate built-in traffic from the "
                        "loadgen options below")
    p.add_argument("--window", type=int, default=16,
                   help="micro-batch budget W: clouds per window")
    p.add_argument("--max-wait-ms", type=float, default=50.0,
                   help="window cap T: the most ms a window stays open "
                        "after its first cloud. Windows close earlier "
                        "when full or as soon as the input goes quiet, "
                        "so only a steady trickle ever waits this long")
    p.add_argument("--tenants", type=int, default=0,
                   help="serve N tenant sessions sharing this engine "
                        "(deficit-round-robin fairness, cross-tenant "
                        "fusion); reads the tagged wire format of "
                        "'repro loadgen --tenants N'")
    p.add_argument("--quantum-points", type=float, default=8192.0,
                   help="multi-tenant DRR quantum: points of admission "
                        "credit per tenant per round")
    p.add_argument("--shards", type=int, default=0,
                   help="serve through N engine worker processes behind a "
                        "consistent-hash router (0 = in-process server); "
                        "each shard runs a private partition cache and "
                        "dedup window, so the fleet's hot capacity is N x "
                        "one process")
    p.add_argument("--transport", choices=["shm", "pickle"], default="shm",
                   help="sharded array transport: 'shm' moves clouds and "
                        "results through shared-memory arenas (two copies "
                        "end to end), 'pickle' ships them inline through "
                        "the queues (the baseline)")
    p.add_argument("--affinity", choices=["auto", "content", "stream"],
                   default="auto",
                   help="sharded routing key: 'content' pins repeated "
                        "clouds to one shard (hot-asset caching), 'stream' "
                        "pins each tenant/sensor stream (keeps --delta "
                        "patching shard-local); 'auto' = stream when "
                        "--delta else content")
    p.add_argument("--arena-mb", type=int, default=64,
                   help="sharded shm transport: arena size in MiB (one "
                        "request arena per shard + one response arena per "
                        "worker; overflow degrades to inline transport)")
    p.add_argument("--in-flight", type=int, default=0,
                   help="backpressure bound on pulled-but-unserved clouds "
                        "(0 = engine default, 2 x workers; with --shards, "
                        "4 x shards)")
    p.add_argument("--stats-every", type=int, default=10,
                   help="print a telemetry line every N windows (0 = off)")
    p.add_argument("--trace",
                   help="record an end-to-end span trace to this file: "
                        ".json = Chrome trace_event (Perfetto-loadable), "
                        ".jsonl = one span per line (feed either to "
                        "'repro trace summarize')")
    p.add_argument("--trace-sample", type=int, default=1,
                   help="head-based sampling: record every Nth request/"
                        "window trace (1 = all)")
    p.add_argument("--metrics", action="store_true",
                   help="print the Prometheus text exposition of the "
                        "serving counters/gauges/histograms at exit")
    p.add_argument("--partitioner", choices=PARTITIONER_NAMES, default="fractal")
    p.add_argument("--block-size", type=int, default=256)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--kernel", choices=KERNEL_NAMES, default="auto",
                   help="block-op implementation: 'loop' (per-block "
                        "reference), 'ragged' (fused CSR kernels) or 'auto' "
                        "(cost-model dispatch); all are bit-identical")
    p.add_argument("--delta", action="store_true",
                   help="streaming-frames delta protocol: serve near-miss "
                        "frames by certificate-verified reuse or "
                        "incremental patching of a cached partition "
                        "(bit-identical to a rebuild)")
    p.add_argument("--motion-threshold", type=float, default=0.1,
                   help="delta protocol: max per-point drift a frame may "
                        "show and still qualify for reuse/patching")
    p.add_argument("--fuse-max-points", type=int, default=262_144,
                   help="fused-bucket point budget (0 = unbounded)")
    p.add_argument("--fuse-max-spread", type=float, default=4.0,
                   help="max size ratio inside one fused bucket "
                        "(0 = unbounded)")
    p.add_argument("--model", default=None,
                   help="serve full network inference instead of the raw "
                        "BPPO pipeline: a model registry name "
                        f"({', '.join(MODEL_NAMES)}); with --tenants, a "
                        "comma list assigns models to tenants round-robin")
    p.add_argument("--agg", choices=["auto", "eager", "delayed"],
                   default="auto",
                   help="model pipelines: set-abstraction aggregation "
                        "order — 'delayed' runs the shared MLP per point "
                        "and gathers afterwards (Mesorasi-style), 'eager' "
                        "gathers then applies the MLP; bit-identical "
                        "either way, 'auto' = cost model (REPRO_AGG "
                        "fills in)")
    p.add_argument("--sample-ratio", type=float, default=0.25)
    p.add_argument("--radius", type=float, default=0.2)
    p.add_argument("--group-size", type=int, default=16)
    p.add_argument("--clouds", type=int, default=64,
                   help="built-in traffic: cloud count (no --input)")
    p.add_argument("--min-points", type=int, default=64)
    p.add_argument("--max-points", type=int, default=256)
    p.add_argument("--dup-rate", type=float, default=0.2)
    p.add_argument("--interval", type=float, default=0.0,
                   help="built-in traffic: seconds between arrivals")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="modelnet40")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace",
        help="offline tooling over 'serve --trace' span files",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser(
        "summarize",
        help="per-stage self-time breakdown + coverage gate",
    )
    ps.add_argument("path", help="a --trace output file (.json or .jsonl)")
    ps.add_argument("--tolerance", type=float, default=0.1,
                    help="allowed |coverage - 1| before exiting 1 "
                         "(coverage = stage total / traced wall time)")
    ps.set_defaults(func=_cmd_trace_summarize)

    p = sub.add_parser(
        "lint",
        help="project-invariant static analysis (REP001-REP008)",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--select",
                   help="comma list of rule ids to run (default: all)")
    p.add_argument("--statistics", action="store_true",
                   help="append a per-rule finding count")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule table and exit")
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
