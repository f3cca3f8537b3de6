"""Sharded serving front-end: consistent-hash routing over engine shards.

:class:`ShardRouter` is the process-level scale-out of the serving
layer.  It keeps N :mod:`~repro.shard.worker` processes behind a
:class:`~repro.shard.hashring.HashRing` and routes every request by its
content digest (:func:`~repro.runtime.cache.result_key`), so every
repeat of a hot asset lands on the same shard and the fleet's dedup
windows and partition caches tile the catalog instead of replicating
it.  With N shards the aggregate hot capacity is N× one process — the
sharded win on hot-asset traffic, even on a single core.

Bulk arrays move through the shared-memory transport
(:mod:`~repro.shard.transport`): the router owns one request arena per
shard, each worker owns a response arena, and the pipes carry only
control tuples.  Each shard is wired by one duplex
:func:`multiprocessing.Pipe` — no queue feeder threads or their extra
pickling hop — and the router multiplexes result pipes with
:func:`multiprocessing.connection.wait`.  Workers reply once per
executed window (a single batched ``results`` message), so messaging
cost amortises over the window instead of scaling per request.  Requests
are written by a tiny per-shard sender thread: the router's main thread
then never blocks on a pipe write, which could otherwise deadlock
against a worker blocked writing a large inline result in ``pickle``
mode.  Results are copied out of the arena at the emission boundary
(ownership leaves the transport there) and the blocks are recycled.

Serving is event-driven: :meth:`ShardRouter.serve` pulls the source on
a side thread (:class:`~repro.serve.inbox.Inbox`, bounded by
``max_in_flight``) and the main thread waits on one set — every shard
pipe, every worker's process sentinel, and the inbox's wake fd while
more requests may be admitted.  A result is emitted as soon as its
worker replies, not when the next request happens to arrive, and a
request is routed as soon as it arrives, even while results are
outstanding.  A worker that dies (its sentinel fires, or its pipe hits
EOF) fails the stream with a :class:`RuntimeError` naming the shard
instead of hanging it; :meth:`close` still reclaims every arena.

Ordering: results are emitted in global submission order — a total order
that in particular preserves every stream's own order — via a reorder
buffer, exactly like the single-process servers.  Membership changes are
live: :meth:`add_shard` grows the ring (only ~1/N of the key space
remaps), :meth:`remove_shard` drains the leaving shard first, so every
in-flight cloud is delivered exactly once.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

from .. import obs
from ..runtime.cache import result_key
from ..runtime.executor import CloudResult, PipelineSpec, _as_cloud
from ..serve.inbox import Inbox
from .hashring import HashRing
from .transport import PickleChannel, ShmArena, ShmPeer
from .worker import shard_main, unpack_result

__all__ = ["ShardRouter", "ShardResult"]


@dataclass(frozen=True)
class ShardResult:
    """One served cloud with its routing envelope."""

    stream: str
    seq: int
    shard: str
    latency: float
    result: CloudResult


def _send_loop(outbox: queue.SimpleQueue, conn) -> None:
    """Per-shard sender: drain the outbox into the pipe, off the main
    thread, so a full pipe never blocks routing/pumping."""
    while True:
        msg = outbox.get()
        if msg is None:
            break
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError):
            break  # worker gone; the stop path will surface it


@dataclass
class _Shard:
    """Router-side state of one worker process."""

    name: str
    process: mp.process.BaseProcess
    conn: object  # router end of the duplex pipe
    channel: object  # request arena (router-owned)
    arena: str = ""  # the worker's response arena ("" under pickle)
    outbox: queue.SimpleQueue = field(default_factory=queue.SimpleQueue)
    sender: threading.Thread | None = None
    peer: ShmPeer = field(default_factory=ShmPeer)
    in_flight: int = 0
    served: int = 0
    windows: int = 0
    busy_seconds: float = 0.0


class ShardRouter:
    """Route a cloud stream across N single-process engine shards.

    Usage::

        router = ShardRouter(4, engine=dict(partitioner="fractal",
                                            block_size=256))
        for served in router.serve(clouds):        # submission order
            consume(served.result)
        print(router.report(wall).format())
        router.close()

    Args:
        shards: shard count (names become ``shard-0..N-1``) or an
            iterable of explicit shard names.
        engine: keyword arguments for each shard's private
            :class:`~repro.runtime.executor.BatchExecutor` (the
            partitioner **name**, block size, cache and dedup sizing).
            Each engine is serial; the shards are the parallelism.
        pipeline: the :class:`PipelineSpec` every shard runs.
        transport: ``"shm"`` (shared-memory arenas, control-only pipes)
            or ``"pickle"`` (arrays inline through the pipes — the
            baseline).
        affinity: the routing key; ``"content"`` (the content digest)
            is the only one.
        arena_bytes: size of each arena (one request arena per shard on
            the router side, one response arena per worker).  Overflow
            degrades to inline transport per array, never an error.
        max_clouds: greedy window cap inside each worker.
        max_in_flight: router-wide cap on unemitted requests; the pump
            blocks submission beyond it, bounding arena pressure.
        telemetry: optional :class:`ServeTelemetry` to record into.
    """

    def __init__(
        self,
        shards: int | Iterable[str] = 2,
        *,
        engine: dict | None = None,
        pipeline: PipelineSpec | None = None,
        transport: str = "shm",
        affinity: str = "content",
        arena_bytes: int = 64 << 20,
        max_clouds: int = 16,
        max_in_flight: int = 32,
        replicas: int = 128,
        telemetry=None,
    ):
        if transport not in ("shm", "pickle"):
            raise ValueError(f"transport must be shm|pickle, got {transport!r}")
        if affinity != "content":
            raise ValueError(f"affinity must be content, got {affinity!r}")
        self.engine_kwargs = dict(engine or {})
        self.pipeline = pipeline or PipelineSpec()
        self.transport = transport
        self.arena_bytes = arena_bytes
        self.max_clouds = max_clouds
        self.max_in_flight = max_in_flight
        if telemetry is None:
            from ..serve.telemetry import ServeTelemetry

            telemetry = ServeTelemetry(window_capacity=max_clouds, every=0)
        self.telemetry = telemetry

        # Start the resource tracker before the first fork: every shard
        # then inherits one shared tracker, whose name registry (a set)
        # dedups the create+attach registrations of each segment, and
        # each segment's single unlink clears it — no spurious "leaked
        # shared_memory" warnings from per-process trackers at exit.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except (ImportError, AttributeError):  # non-POSIX fallback
            pass
        self._ctx = mp.get_context("fork")
        self._ring = HashRing(replicas=replicas)
        self._shards: dict[str, _Shard] = {}
        self._pending: dict[int, tuple[str, int, float, str, object]] = {}
        self._emitted: dict[int, ShardResult] = {}
        self._next_req = 0
        self._next_emit = 0
        self._stream_seq: dict[str, int] = {}
        self._drain_tokens = 0
        self._inbox: Inbox | None = None  # the source, while serve() runs
        self._closed = False
        names = (
            [f"shard-{i}" for i in range(shards)]
            if isinstance(shards, int)
            else list(shards)
        )
        if not names:
            raise ValueError("need at least one shard")
        for name in names:
            self.add_shard(name)

    # -- membership ----------------------------------------------------------

    @property
    def shards(self) -> tuple[str, ...]:
        return self._ring.shards

    def add_shard(self, name: str) -> None:
        """Start a worker and join it to the ring (remaps ~1/N of keys)."""
        if name in self._shards:
            raise ValueError(f"shard {name!r} already running")
        router_conn, worker_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_main,
            args=(name, worker_conn, self.engine_kwargs, self.pipeline),
            kwargs=dict(transport=self.transport,
                        arena_bytes=self.arena_bytes,
                        max_clouds=self.max_clouds,
                        obs_config={"trace": obs.enabled(), "sample": 0}),
            name=f"repro-{name}",
            daemon=True,
        )
        process.start()
        worker_conn.close()  # router keeps only its own end
        channel = (
            ShmArena(self.arena_bytes)
            if self.transport == "shm"
            else PickleChannel()
        )
        shard = _Shard(name, process, router_conn, channel)
        shard.sender = threading.Thread(
            target=_send_loop, args=(shard.outbox, router_conn),
            name=f"repro-{name}-tx", daemon=True,
        )
        shard.sender.start()
        # Handshake before the shard takes traffic: the first message on
        # this shard's fresh pipe is its ``ready``.
        msg = router_conn.recv()
        if msg[0] != "ready" or msg[1] != name:
            raise RuntimeError(f"bad handshake from {name!r}: {msg[:2]!r}")
        shard.arena = msg[2]
        self._shards[name] = shard
        self._ring.add(name)

    def remove_shard(self, name: str, *, drain: bool = True) -> None:
        """Retire a shard; with ``drain`` every in-flight cloud it holds
        is delivered (exactly once, in order) before the process stops."""
        if name not in self._shards:
            raise KeyError(f"unknown shard {name!r}")
        self._ring.remove(name)  # future keys rehash onto survivors
        shard = self._shards[name]
        if drain:
            token = self._drain_tokens = self._drain_tokens + 1
            shard.outbox.put(("drain", token))
            drained = False
            while not (drained and shard.in_flight == 0):
                msg = shard.conn.recv()
                if msg[0] == "drained" and msg[2] == token:
                    drained = True
                else:
                    self._handle(msg)
        self._stop_shard(shard)
        del self._shards[name]

    def _stop_shard(self, shard: _Shard) -> None:
        shard.outbox.put(("stop",))
        shard.outbox.put(None)  # sender exits once the stop is on the wire
        stopped = False
        try:
            while True:
                # Waiting on the sentinel too: a dead worker never answers.
                mp_connection.wait([shard.conn, shard.process.sentinel])
                if not shard.conn.poll(0):
                    break  # exited with nothing left on the pipe
                msg = shard.conn.recv()
                if msg[0] == "stopped" and msg[1] == shard.name:
                    stopped = True
                    break
                self._handle(msg)
        except (EOFError, OSError):
            pass  # the worker died; its pipe is closed
        if shard.sender is not None:
            shard.sender.join(timeout=5)
        shard.process.join(timeout=10)
        if not stopped and shard.arena:
            shard.peer.unlink(shard.arena)  # a dead worker cannot
        shard.peer.close()      # detach from the worker's (unlinked) arena
        shard.channel.close()   # unlink the router-owned request arena
        shard.conn.close()

    # -- serving -------------------------------------------------------------

    def submit(self, cloud, *, stream: str = "t0") -> int:
        """Route one cloud; returns its global submission index."""
        if self._closed:
            raise RuntimeError("router is closed")
        coords, features = _as_cloud(cloud)
        name = self._ring.route(result_key(coords, features))
        shard = self._shards[name]
        # Head sampling happens here, once per request: a sampled request
        # gets an open root span whose context rides the run message so
        # the worker's window stitches under it.
        handle = obs.open_span("serve.request", stream=stream, shard=name)
        pack_start = obs.now() if handle is not None else 0.0
        refs = [shard.channel.pack(coords)]
        if features is not None:
            refs.append(shard.channel.pack(features))
        if handle is not None:
            obs.record(
                "shard.serialize", pack_start, obs.now(),
                parent=handle.ctx, points=len(coords),
            )
        req_id = self._next_req
        self._next_req += 1
        seq = self._stream_seq.get(stream, 0)
        self._stream_seq[stream] = seq + 1
        self._pending[req_id] = (stream, seq, obs.now(), name, handle)
        shard.in_flight += 1
        shard.outbox.put((
            "run", req_id, tuple(refs), features is not None,
            handle.ctx if handle is not None else None,
        ))
        return req_id

    def _handle(self, msg) -> None:
        """Fold one worker message into router state."""
        kind = msg[0]
        if kind == "results":
            _, name, payload, stats = msg
            shard = self._shards[name]
            now = obs.now()
            spans = stats.pop("spans", None)
            if spans:
                obs.adopt(spans)
            first_ctx = None
            free_refs = []
            for req_id, meta, refs, req_refs in payload:
                shard.in_flight -= 1
                shard.served += 1
                # Copy out of the arena: ownership leaves the transport
                # at the emission boundary, then the blocks recycle.
                result = unpack_result(shard.peer, meta, refs, copy=True)
                free_refs.extend(r for r in refs if r is not None)
                shard.channel.reclaim(req_refs)
                stream, seq, submitted, _, handle = self._pending.pop(req_id)
                if handle is not None:
                    if first_ctx is None:
                        first_ctx = handle.ctx
                    handle.finish()
                latency = now - submitted
                self.telemetry.record_latency(latency)
                obs.observe("repro_shard_latency_seconds", latency)
                obs.inc("repro_serve_clouds")
                self._emitted[req_id] = ShardResult(
                    stream, seq, name, latency, result
                )
            if first_ctx is not None:
                obs.record(
                    "transport.unpack", now, obs.now(),
                    parent=first_ctx, results=len(payload),
                )
            # One free message recycles the whole window's response
            # blocks — messaging stays O(windows), not O(requests).
            shard.outbox.put(("free", tuple(free_refs)))
            shard.windows += 1
            shard.busy_seconds += stats.pop("seconds", 0.0)
            self.telemetry.record_window(
                queue_depth=len(self._pending), **stats
            )
        elif kind in ("ready", "drained"):
            pass  # late handshake/drain echo (already consumed)
        else:
            raise RuntimeError(f"unexpected shard message {msg[:2]!r}")

    def _emit_ready(self) -> Iterator[ShardResult]:
        """Yield completed results in global submission order."""
        while self._next_emit in self._emitted:
            served = self._emitted.pop(self._next_emit)
            self._next_emit += 1
            yield served

    def pump(self, *, block: bool = False) -> Iterator[ShardResult]:
        """Absorb worker messages; yield whatever became emittable.

        With ``block=True`` waits until a shard reports or — while
        :meth:`serve` may admit more — a request arrives.  A worker that
        died raises :class:`RuntimeError`.
        """
        yield from self._emit_ready()
        waits: dict[object, _Shard | None] = {}
        for shard in self._shards.values():
            waits[shard.conn] = shard
            waits[shard.process.sentinel] = shard
        inbox = self._inbox
        if (
            inbox is not None
            and not inbox.exhausted
            and len(self._pending) < self.max_in_flight
        ):
            waits[inbox.fileno()] = None
        if waits:
            ready = mp_connection.wait(
                list(waits), timeout=None if block else 0
            )
            dead = None
            for obj in ready:
                shard = waits[obj]
                if shard is None:
                    inbox.drain_wakeups()
                elif obj is shard.conn:
                    try:
                        while shard.conn.poll(0):
                            self._handle(shard.conn.recv())
                    except (EOFError, OSError):
                        dead = shard
                else:
                    dead = shard
            if dead is not None:
                dead.process.join(timeout=1)  # the sentinel can beat the reap
                raise RuntimeError(
                    f"shard {dead.name!r} died (exit code "
                    f"{dead.process.exitcode}) with {dead.in_flight} "
                    "request(s) in flight"
                )
        yield from self._emit_ready()

    def serve(
        self, clouds: Iterable[object], *, default_stream: str = "t0"
    ) -> Iterator[ShardResult]:
        """Serve a stream of clouds (or ``(stream, cloud)`` pairs).

        Yields one :class:`ShardResult` per submission, in submission
        order, as soon as its worker has replied.  The source is pulled
        on a side thread, at most ``max_in_flight`` clouds ahead; at
        most ``max_in_flight`` requests ride the shards at once, and
        beyond that the pull stalls until results come back.  An
        exception from the source re-raises here once every request
        submitted before it has been delivered.
        """
        def admit(item, _arrived) -> None:
            if (
                isinstance(item, tuple)
                and len(item) == 2
                and isinstance(item[0], str)
            ):
                stream, cloud = item
            else:
                stream, cloud = default_stream, item
            self.submit(cloud, stream=stream)

        with Inbox(
            clouds, capacity=self.max_in_flight, name="repro-router-pull"
        ) as inbox:
            self._inbox = inbox
            try:
                while not inbox.exhausted:
                    while (
                        len(self._pending) < self.max_in_flight
                        and inbox.take(admit, 0)
                    ):
                        pass
                    yield from self.pump(block=not inbox.exhausted)
            finally:
                self._inbox = None
            yield from self.flush()
            if inbox.error is not None:
                raise inbox.error

    def flush(self) -> Iterator[ShardResult]:
        """Deliver every outstanding request."""
        while self._pending:
            yield from self.pump(block=True)
        yield from self._emit_ready()

    # -- lifecycle / reporting ----------------------------------------------

    def report(self, wall_seconds: float):
        """Aggregate :class:`~repro.serve.telemetry.ServeReport` across
        the fleet (per-shard counters via :attr:`shard_stats`)."""
        return self.telemetry.report(wall_seconds)

    @property
    def shard_stats(self) -> dict[str, dict]:
        """Per-shard counters: served clouds, windows, busy seconds,
        in-flight, and transport spill count."""
        return {
            name: {
                "served": s.served,
                "windows": s.windows,
                "busy_seconds": round(s.busy_seconds, 6),
                "in_flight": s.in_flight,
                "spilled": getattr(s.channel, "spilled", 0),
            }
            for name, s in sorted(self._shards.items())
        }

    def close(self) -> None:
        """Drain nothing, stop every shard, reclaim every arena."""
        if self._closed:
            return
        self._closed = True
        for name in list(self._shards):
            self._stop_shard(self._shards[name])
            del self._shards[name]

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
