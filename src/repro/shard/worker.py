"""The engine shard: one worker process behind the router.

Each shard runs :func:`shard_main` in its own process: a private serial
:class:`~repro.runtime.executor.BatchExecutor` (own ``PartitionCache``,
own dedup window), a response :class:`~repro.shard.transport.ShmArena`
it owns, and a request loop that mirrors the single-process
:class:`~repro.serve.window.WindowedServer` window semantics —
dedup against the shard's :class:`~repro.runtime.cache.ResultWindow`,
fused execution through ``execute_window`` — so a sharded deployment
stays bit-identical to the one-process reference.

Because the router's consistent hash sends every repeat of a content key
to the same shard, shard-local caches see the same hit pattern a single
process would, but the fleet's *aggregate* cache capacity is N× one
process — that is where the sharded speedup on hot-asset traffic comes
from on a single-core host.

Control traffic rides one duplex :func:`multiprocessing.Pipe` per shard
(no queue feeder threads, no extra pickling hop), bulk arrays ride the
shm transport, and replies are batched per executed window — one
``results`` message carries every result of the window plus its stats,
so per-request messaging cost stays flat as windows grow:

- router → worker: ``("run", req_id, refs, has_features, span_ctx)``
  (``span_ctx`` is the request's sampled trace context or ``None``),
  ``("free", refs)`` (response blocks the router consumed),
  ``("drain", token)``, ``("stop",)``;
- worker → router: ``("ready", shard, arena_name)``,
  ``("results", shard, [(req_id, meta, refs, req_refs), ...], stats)``
  (``stats`` may carry the window's finished spans under ``"spans"``),
  ``("drained", shard, token)``, ``("stopped", shard)``.

Each result crosses whole: its arrays (point-op outputs and, on model
pipelines, ``model_output``) as transport ``refs``, its scalars as
``meta`` — :func:`unpack_result` rebuilds the same :class:`CloudResult`
the one-process engine returns.

Tracing: the worker runs its tracer in remote-only mode (``sample=0``)
— it never opens root traces of its own, but when a batch contains a
request the router sampled, the whole window (engine, partition, ops)
records under that request's trace and the finished spans ride home in
the window's ``results`` message.
"""

from __future__ import annotations

from .. import obs
from ..runtime.cache import ResultWindow, result_key
from ..runtime.executor import BatchExecutor, CloudResult, PipelineSpec
from .transport import ArrayRef, PickleChannel, ShmArena, ShmPeer

__all__ = ["shard_main", "pack_result", "unpack_result", "RESULT_ARRAYS"]

#: CloudResult array fields shipped through the transport, in wire order.
RESULT_ARRAYS = (
    "sampled", "neighbors", "grouped", "interpolated", "model_output",
)


def pack_result(channel, result: CloudResult):
    """Split one result into (picklable meta, transport refs).

    Every :class:`CloudResult` field rides the wire: the arrays of
    :data:`RESULT_ARRAYS` through the transport, the scalars in ``meta``.
    """
    refs: list[ArrayRef | None] = []
    for name in RESULT_ARRAYS:
        array = getattr(result, name)
        refs.append(None if array is None else channel.pack(array))
    meta = {
        "index": result.index,
        "num_points": result.num_points,
        "num_blocks": result.num_blocks,
        "cache_hit": result.cache_hit,
        "seconds": result.seconds,
        "reused": result.reused,
        "partition_source": result.partition_source,
    }
    return meta, tuple(refs)


def unpack_result(peer, meta: dict, refs, *, copy: bool) -> CloudResult:
    """Rebuild a :class:`CloudResult` from wire form."""
    arrays = {
        name: None if ref is None else peer.unpack(ref, copy=copy)
        for name, ref in zip(RESULT_ARRAYS, refs)
    }
    return CloudResult(**meta, **arrays)


def shard_main(
    shard: str,
    conn,
    engine_kwargs: dict,
    pipeline: PipelineSpec,
    *,
    transport: str = "shm",
    arena_bytes: int = 64 << 20,
    max_clouds: int = 16,
    obs_config: dict | None = None,
) -> None:
    """Process entry point of one engine shard (run under ``fork``)."""
    # Fresh, pid-correct tracer: never serve from state forked off the
    # router.  Remote-only sampling (``sample=0``) — the router decides
    # which requests trace; everything else stays on the fast exit.
    if obs_config:
        obs.configure(**obs_config)
    else:
        obs.configure(trace=False, metrics=False)
    engine = BatchExecutor(**engine_kwargs)
    # Requests are zero-copy views into the router's arena, safe for the
    # lifetime of the window: the router reclaims request blocks only
    # after this worker reports them consumed via ``req_refs``.
    channel = ShmArena(arena_bytes) if transport == "shm" else PickleChannel()
    peer = ShmPeer()
    done = ResultWindow(engine.reuse_window)
    conn.send(("ready", shard, channel.name))

    def run_window(batch) -> None:
        """Dedup + fused execution of one greedy batch, mirroring
        ``WindowedServer._run_window``; replies with ONE batched
        ``results`` message."""
        # The window span parents to the first *sampled* request of the
        # batch (the router's head sampling decision rides in as the run
        # message's span context); with none, the whole window skips.
        span_ctx = next(
            (entry[4] for entry in batch if entry[4] is not None), None
        )
        with obs.span_remote(
            span_ctx, "shard.window", shard=shard, clouds=len(batch)
        ):
            keyed = engine.reuse_results
            split = done.split(
                (slot, coords, features,
                 result_key(coords, features) if keyed else None)
                for slot, (_, coords, features, _, _) in enumerate(batch)
            )
            start = obs.now()
            results, plan = engine.execute_window(split.uniques, pipeline)
            seconds = obs.now() - start
            done.complete(results, split)
            sources = [
                results[slot].partition_source for slot, _, _ in split.uniques
            ]
            payload = []
            with (
                obs.span("transport.pack", results=len(batch))
                if obs.enabled()
                else obs.NULL_SPAN
            ):
                for slot, (req_id, _, _, req_refs, _ctx) in enumerate(batch):
                    meta, refs = pack_result(channel, results[slot])
                    payload.append((req_id, meta, refs, req_refs))
        stats = {
            "size": len(batch),
            "buckets": plan.buckets,
            "fused": plan.fused_clouds,
            "singletons": plan.singleton_clouds,
            "reused": split.reused,
            "cold": sources.count("cold"),
            "warm": sources.count("warm"),
            "seconds": seconds,
        }
        spans = obs.drain()
        if spans:
            stats["spans"] = tuple(s.to_wire() for s in spans)
        conn.send(("results", shard, payload, stats))

    def decode(msg):
        """``run`` message → (req_id, coords, features, req_refs, ctx)."""
        _, req_id, refs, has_features, span_ctx = msg
        coords = peer.unpack(refs[0])
        features = peer.unpack(refs[1]) if has_features else None
        return (req_id, coords, features, refs, span_ctx)

    stopping = False
    while not stopping:
        msg = conn.recv()
        batch = []
        # Greedy window assembly: take whatever is already on the pipe
        # (up to the window cap) so co-arriving requests fuse, but never
        # wait — latency on an idle shard is one pipe hop, not a timeout.
        while True:
            kind = msg[0]
            if kind == "run":
                batch.append(decode(msg))
                if len(batch) >= max_clouds:
                    break
            elif kind == "free":
                channel.reclaim(msg[1])
            elif kind == "drain":
                if batch:  # serve everything submitted before the token
                    run_window(batch)
                    batch = []
                conn.send(("drained", shard, msg[1]))
            elif kind == "stop":
                stopping = True
                break
            if not conn.poll(0):
                break
            msg = conn.recv()
        if batch:
            run_window(batch)

    engine.close()
    done.clear()
    peer.close()  # drop request-arena attachments (router owns those)
    channel.close()  # unlink the response arena
    conn.send(("stopped", shard))
