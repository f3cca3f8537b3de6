"""Multi-tenant serving: N client sessions sharing one fused engine.

PR 4's :class:`~repro.serve.window.WindowedServer` serves exactly one
stream; the north-star traffic is many concurrent clients sharing one
machine.  The naive fix — one server (and one engine) per
client — forfeits the two things sharing is for: **cross-tenant fusion**
(compatible clouds from different clients packed into one ragged kernel
invocation, so nobody's half-empty window wastes the amortisation) and
**fairness** (a bursty client must not be able to queue a latency-
sensitive one into the ground just by arriving faster).

The pieces:

- :class:`TenantSpec` / :class:`TenantSession` — each tenant holds its
  own pipeline config, its own dedup window
  (:class:`~repro.runtime.cache.ResultWindow`) and its own telemetry;
  only the :class:`~repro.runtime.executor.BatchExecutor` (and its
  partition cache) is shared.
- :class:`DeficitRoundRobin` — cost-aware admission (cost = points, the
  unit the kernels actually bill in).  Classic DRR with one serving
  guarantee bolted on: a tenant with queued work is **never passed over
  in two consecutive rounds** — whatever the quantum, the window budget,
  or the sizes of its clouds.
- :class:`MultiTenantServer` — the scheduler: collect arrivals across
  tenants into one shared window, admit fairly, group admitted clouds by
  pipeline, and run each group through the engine's fused machinery
  (``execute_window``) so clouds from different tenants land in the same
  ragged invocation whenever the bin-packer finds them compatible.

Ordering and correctness contract: every tenant sees its own results in
its own submission order, and every result is index-level bit-identical
to that tenant running its stream alone through the serial reference
path — window composition, fairness decisions, and cross-tenant bucket
mates affect latency and throughput, never a bit
(``tests/test_tenancy.py``).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..runtime.cache import ResultWindow, result_key
from ..runtime.executor import BatchExecutor, CloudResult, PipelineSpec, _as_cloud
from .inbox import FULL, Inbox
from .planner import WindowPlan
from .telemetry import ServeReport, ServeTelemetry
from .window import WindowConfig

__all__ = [
    "DeficitRoundRobin",
    "MultiTenantServer",
    "TenantResult",
    "TenantSpec",
]


@dataclass(frozen=True)
class TenantSpec:
    """Static per-tenant configuration.

    Attributes:
        name: the tenant's id (the tag on the wire and in reports).
        pipeline: the BPPO pipeline this tenant's clouds run through.
            Tenants sharing an identical pipeline fuse with each other;
            different pipelines execute separately (still in the same
            window, on the same engine).
        weight: DRR weight — a tenant with weight 2 earns twice the
            admission quantum per round.
        reuse_window: per-tenant dedup depth (distinct recent clouds a
            repeat can replay from); ``None`` uses the engine's.
    """

    name: str
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    weight: float = 1.0
    reuse_window: int | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.reuse_window is not None and self.reuse_window < 1:
            raise ValueError(
                f"reuse_window must be >= 1 or None, got {self.reuse_window}"
            )


@dataclass
class _Request:
    """One queued cloud of one tenant."""

    seq: int
    arrived: float
    coords: np.ndarray
    features: np.ndarray | None
    key: bytes | None

    @property
    def cost(self) -> int:
        return len(self.coords)


@dataclass
class TenantResult:
    """One served cloud: the engine's result plus its tenant envelope."""

    tenant: str
    seq: int
    latency: float
    result: CloudResult


class DeficitRoundRobin:
    """Cost-aware fair admission across tenant queues.

    Deficit round robin (Shreedhar & Varghese, 1996): each round every
    backlogged tenant earns ``quantum × weight`` credit and admits
    head-of-line requests while its credit covers their cost, so over
    time each tenant's admitted *work* (points, not requests) converges
    to its weight share regardless of how its traffic is sliced into
    clouds.

    One guarantee is added on top of the classic algorithm, because a
    serving scheduler must bound waiting in *rounds*, not just in work:
    a tenant that was backlogged and admitted nothing in round ``r`` is
    served **first** in round ``r+1`` (one request, minimum), even if
    its credit does not cover the cost and even if the window budget is
    already spoken for — the admission capacity is raised when needed.
    So no ready tenant is ever skipped twice in a row, which is the
    starvation bound the test suite holds as a hypothesis property.  And
    a round never comes up empty while work is queued: when no credit
    covers any head, the first ready tenant in rotation order is served
    as if starved.
    """

    def __init__(
        self,
        quantum: float = 8192.0,
        *,
        weights: Mapping[str, float] | None = None,
    ):
        if quantum <= 0:
            raise ValueError(f"quantum must be > 0, got {quantum}")
        self.quantum = float(quantum)
        self._weights: dict[str, float] = dict(weights or {})
        self._order: list[str] = []
        self._deficit: dict[str, float] = {}
        self._cursor = 0
        self._starved: set[str] = set()

    def register(self, tenant: str, weight: float = 1.0) -> None:
        """Add a tenant to the rotation (idempotent, stable order)."""
        if tenant not in self._deficit:
            self._order.append(tenant)
            self._deficit[tenant] = 0.0
            self._weights.setdefault(tenant, weight)

    @property
    def deficits(self) -> dict[str, float]:
        """Current per-tenant credit (read-only snapshot)."""
        return dict(self._deficit)

    def _rotation(self, ready: Sequence[str]) -> list[str]:
        """Ready tenants in rotation order, starting at the cursor."""
        ranked = {name: i for i, name in enumerate(self._order)}
        start = self._cursor % max(len(self._order), 1)
        return sorted(
            ready, key=lambda t: ((ranked[t] - start) % len(self._order), ranked[t])
        )

    def admit(
        self, queues: Mapping[str, Sequence[float]], capacity: int
    ) -> dict[str, int]:
        """One admission round.

        Args:
            queues: per-tenant costs of queued requests, head of line
                first.  Unknown tenants are registered in iteration
                order.
            capacity: the window budget in requests.  Internally raised
                to the number of previously-starved backlogged tenants
                so the no-double-skip guarantee survives tiny windows.

        Returns:
            ``{tenant: count}`` — how many head-of-line requests each
            tenant sends into this window (only non-zero entries).
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        for tenant in queues:
            self.register(tenant)
        ready = [t for t in self._order if len(queues.get(t, ())) > 0]
        if not ready:
            self._starved = set()
            return {}
        admitted = {t: 0 for t in ready}
        rotation = self._rotation(ready)
        remaining = max(capacity, len(self._starved & set(ready)))

        # Starvation guard: last round's passed-over tenants go first.
        for tenant in rotation:
            if tenant in self._starved and remaining > 0:
                admitted[tenant] = 1
                self._deficit[tenant] = 0.0
                remaining -= 1

        # Classic DRR pass over everyone still backlogged.
        for tenant in rotation:
            if remaining <= 0:
                break
            costs = queues[tenant]
            taken = admitted[tenant]
            if taken >= len(costs):
                self._deficit[tenant] = 0.0
                continue
            self._deficit[tenant] += self.quantum * self._weights.get(tenant, 1.0)
            while (
                taken < len(costs)
                and remaining > 0
                and self._deficit[tenant] >= costs[taken]
            ):
                self._deficit[tenant] -= costs[taken]
                taken += 1
                remaining -= 1
            admitted[tenant] = taken
            if taken >= len(costs):
                # Queue drained: credit does not bank across idle time.
                self._deficit[tenant] = 0.0

        if not any(admitted.values()):
            # Every head costs more than its tenant's credit.  An empty
            # round would only put off the guard to the next one (and
            # cost the caller an idle window), so apply it now.
            admitted[rotation[0]] = 1
            self._deficit[rotation[0]] = 0.0

        self._starved = {t for t in ready if admitted[t] == 0}
        if self._order:
            self._cursor = (self._cursor + 1) % len(self._order)
        return {t: n for t, n in admitted.items() if n > 0}


class TenantSession:
    """Live per-tenant serving state (owned by the server).

    Everything that must *not* leak across tenants lives here: the FIFO
    request queue, the submission/emission counters, the dedup window of
    canonical results, and the telemetry.
    """

    def __init__(
        self,
        spec: TenantSpec,
        *,
        reuse_window: int,
        telemetry: ServeTelemetry,
    ):
        self.spec = spec
        self.queue: deque[_Request] = deque()
        self.submitted = 0
        self.emitted = 0
        self.dedup = ResultWindow(
            spec.reuse_window if spec.reuse_window is not None else reuse_window
        )
        self.telemetry = telemetry

    @property
    def name(self) -> str:
        return self.spec.name


class MultiTenantServer:
    """Serve N tenant streams through one shared fused engine.

    Usage::

        engine = BatchExecutor("fractal", block_size=64)
        server = MultiTenantServer(
            engine,
            [TenantSpec("lidar", PipelineSpec(radius=0.3)),
             TenantSpec("assets", weight=2.0)],
        )
        for served in server.serve(tagged_stream()):   # (tenant, cloud)
            consume(served.tenant, served.result)
        server.close()

    The synchronous core (:meth:`submit` + :meth:`drain`) is exposed so
    schedulers can be driven deterministically — the fairness suite
    feeds a synthetic clock through ``arrived=`` / ``now=`` and never
    touches a thread.

    Args:
        engine: the shared :class:`BatchExecutor`; its partition cache,
            fusion caps, and ``reuse_results`` switch apply to every
            tenant.
        tenants: :class:`TenantSpec`\\ s (or bare names) declaring the
            sessions.
        window: the shared window limits (default :class:`WindowConfig`);
            ``W`` is the admission budget of one round, ``T`` the cap on
            how long :meth:`serve` assembles it.
        quantum_points: DRR quantum in points per round per unit weight.
        share_results: opt-in cross-tenant dedup.  Hot assets are hot
            for *every* tenant; with this on, a cloud whose exact
            content was served to any tenant recently replays from one
            shared content-addressed window instead of recomputing —
            bit-identical by construction, marked ``reused``.  Off by
            default: strict session isolation (tenants never observe
            each other's results, not even identical ones).
        telemetry_every: per-tenant stats-line period (0 = final report
            only).
        clock: timestamp source (tests inject a synthetic one).
    """

    def __init__(
        self,
        engine: BatchExecutor,
        tenants: Iterable[TenantSpec | str],
        *,
        window: WindowConfig | None = None,
        quantum_points: float = 8192.0,
        share_results: bool = False,
        telemetry_every: int = 0,
        clock=obs.now,
    ):
        self.engine = engine
        self.window = window or WindowConfig()
        self._clock = clock
        specs = [
            spec if isinstance(spec, TenantSpec) else TenantSpec(str(spec))
            for spec in tenants
        ]
        if not specs:
            raise ValueError("need at least one tenant")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.share_results = share_results
        #: Cross-tenant dedup window (share_results mode only).
        self._shared = ResultWindow(engine.reuse_window)
        self.scheduler = DeficitRoundRobin(
            quantum_points, weights={spec.name: spec.weight for spec in specs}
        )
        self._sessions: dict[str, TenantSession] = {}
        for spec in specs:
            self.scheduler.register(spec.name, spec.weight)
            self._sessions[spec.name] = TenantSession(
                spec,
                reuse_window=engine.reuse_window,
                # Occupancy denominator: the budget one tenant *could*
                # win in a round — the whole shared window.
                telemetry=ServeTelemetry(
                    window_capacity=self.window.max_clouds,
                    every=telemetry_every,
                    label=spec.name,
                ),
            )

    # -- introspection -------------------------------------------------------

    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenant names in registration order."""
        return tuple(self._sessions)

    def session(self, tenant: str) -> TenantSession:
        """The live session of one tenant (telemetry, queue, dedup)."""
        return self._sessions[tenant]

    @property
    def backlog(self) -> int:
        """Total queued-but-unserved requests across all tenants."""
        return sum(len(s.queue) for s in self._sessions.values())

    def reports(self, wall_seconds: float) -> dict[str, ServeReport]:
        """Per-tenant final reports over a shared wall-clock interval."""
        return {
            name: session.telemetry.report(wall_seconds)
            for name, session in self._sessions.items()
        }

    # -- synchronous core ----------------------------------------------------

    def submit(self, tenant: str, cloud: object, *, arrived: float | None = None) -> int:
        """Queue one cloud for ``tenant``; returns its per-tenant seq.

        ``arrived`` defaults to the server clock; tests pass explicit
        timestamps to make latency accounting deterministic.
        """
        try:
            session = self._sessions[tenant]
        except KeyError:
            raise ValueError(
                f"unknown tenant {tenant!r}; sessions exist for {list(self._sessions)}"
            ) from None
        coords, features = _as_cloud(cloud)
        when = self._clock() if arrived is None else float(arrived)
        key = result_key(coords, features) if self.engine.reuse_results else None
        request = _Request(session.submitted, when, coords, features, key)
        session.submitted += 1
        session.queue.append(request)
        return request.seq

    def drain(
        self, *, now: float | None = None, reason: str = FULL
    ) -> list[TenantResult]:
        """Run one admission + execution round over the queued backlog.

        Admission is one :class:`DeficitRoundRobin` round under the
        window budget ``W``; admitted clouds are grouped by pipeline
        and each group runs through the engine's fused machinery, so
        clouds of different tenants share ragged kernel invocations.
        Emissions are per-tenant submission-ordered (admission always
        takes a FIFO prefix of each queue).  Returns an empty list when
        nothing is queued.

        ``now`` stamps the emissions (defaults to the server clock read
        *after* execution); ``reason`` is why the streaming loop closed
        the window (``full`` / ``timeout`` / ``idle``), booked on every
        admitted tenant's telemetry.
        """
        queues = {
            name: [request.cost for request in session.queue]
            for name, session in self._sessions.items()
            if session.queue
        }
        if not queues:
            return []
        admitted = self.scheduler.admit(queues, self.window.max_clouds)

        batch: list[tuple[TenantSession, _Request]] = []
        for name in self._sessions:
            session = self._sessions[name]
            for _ in range(admitted.get(name, 0)):
                batch.append((session, session.queue.popleft()))

        groups: dict[PipelineSpec, list[tuple[TenantSession, _Request]]] = {}
        for session, request in batch:
            groups.setdefault(session.spec.pipeline, []).append((session, request))

        emissions: list[TenantResult] = []
        plans: dict[str, WindowPlan] = {name: WindowPlan() for name in admitted}
        reused: dict[str, int] = {name: 0 for name in admitted}
        sources: dict[str, list[str]] = {name: [] for name in admitted}
        # Timed on the server clock, like every tenancy timestamp.
        exec_start = self._clock()
        with (
            obs.span(
                "serve.drain",
                clouds=len(batch),
                tenants=len(admitted),
                closed=reason,
            )
            if obs.enabled()
            else obs.NULL_SPAN
        ):
            for pipeline, members in groups.items():
                emissions.extend(
                    self._execute_group(pipeline, members, plans, reused, sources)
                )
        obs.observe("repro_serve_window_seconds", self._clock() - exec_start)
        obs.inc("repro_serve_clouds", len(batch))
        obs.inc("repro_serve_windows")
        emitted_at = self._clock() if now is None else float(now)

        # Emission order: per-tenant seq order (guaranteed — each
        # tenant's members are a FIFO prefix), tenants in registration
        # order, so the full interleaving is deterministic.
        rank = {name: i for i, name in enumerate(self._sessions)}
        emissions.sort(key=lambda tr: (rank[tr.tenant], tr.seq))

        for served in emissions:
            session = self._sessions[served.tenant]
            served.latency = emitted_at - served.latency  # stored arrival
            assert served.seq == session.emitted, (
                f"tenant {served.tenant} would emit seq {served.seq} "
                f"before {session.emitted}"
            )
            session.emitted += 1
            session.telemetry.record_latency(served.latency)
        for name, count in admitted.items():
            session = self._sessions[name]
            plan = plans[name]
            split = sources[name]
            session.telemetry.record_window(
                size=count,
                buckets=plan.buckets,
                fused=plan.fused_clouds,
                singletons=plan.singleton_clouds,
                reused=reused[name],
                queue_depth=len(session.queue),
                reason=reason,
                cold=split.count("cold"),
                warm=split.count("warm"),
            )
        return emissions

    def _execute_group(
        self,
        pipeline: PipelineSpec,
        members: list[tuple[TenantSession, _Request]],
        plans: dict[str, WindowPlan],
        reused: dict[str, int],
        sources: dict[str, list[str]],
    ) -> list[TenantResult]:
        """Fused execution of one pipeline group (possibly many tenants).

        Dedup scope follows the server mode.  Default (strict): each
        tenant's clouds split against that tenant's own
        :class:`~repro.runtime.cache.ResultWindow`, so a repeat replays
        only its own tenant's results — tenants never observe each
        other's, even bit-identical ones (isolation beats the replay
        win).  With ``share_results`` one shared window spans tenants, so
        anyone's recent computation serves everyone's identical content.
        Either way the group's uniques run in one ``execute_window`` call.
        The returned ``TenantResult.latency`` field temporarily carries
        the arrival timestamp; :meth:`drain` rewrites it once the shared
        emission time is known.
        """
        entries: dict[ResultWindow, list] = {}
        for slot, (session, request) in enumerate(members):
            window = self._shared if self.share_results else session.dedup
            entries.setdefault(window, []).append(
                (slot, request.coords, request.features, request.key)
            )
        splits = [(window, window.split(group)) for window, group in entries.items()]
        uniques = [item for _, split in splits for item in split.uniques]
        results, plan = self.engine.execute_window(uniques, pipeline)
        for window, split in splits:
            window.complete(results, split)

        # Attribute each computed cloud to its tenant: the partition
        # source (cold / warm, the accounting the single-stream server
        # has) and the fused/singleton split.  A fused bucket may span
        # several tenants, so bucket counts cannot be split exactly; each
        # tenant with fused traffic in this group is charged the group's
        # bucket count (the invocations it rode in).
        singleton = set(plan.singleton_indices)
        for slot, _, _ in uniques:
            name = members[slot][0].name
            sources[name].append(results[slot].partition_source)
            plans[name] = plans[name] + (
                WindowPlan(singleton_clouds=1)
                if slot in singleton
                else WindowPlan(fused_clouds=1)
            )
        for name in {session.name for session, _ in members}:
            if plans[name].fused_clouds:
                plans[name] = plans[name] + WindowPlan(buckets=plan.buckets)

        served: list[TenantResult] = []
        for slot, (session, request) in enumerate(members):
            result = dataclasses.replace(results[slot], index=request.seq)
            reused[session.name] += result.reused
            served.append(
                TenantResult(session.name, request.seq, request.arrived, result)
            )
        return served

    # -- streaming facade ----------------------------------------------------

    def serve(
        self,
        requests: Iterable[tuple[str, object]],
        *,
        on_stats=None,
    ) -> Iterator[TenantResult]:
        """Serve an unbounded ``(tenant, cloud)`` stream.

        The shared window opens at the first arrival (or on the backlog
        the last round left) and closes once ``W`` clouds are
        backlogged, the source goes quiet, or ``T`` elapses — the
        single-stream rule (:meth:`repro.serve.inbox.Inbox.gather`).
        Each close runs one :meth:`drain` round, so fairness applies
        whenever a burst outruns the budget and the backlog carries
        over.  Results yield in per-tenant submission order; the source
        may be unbounded (``engine.in_flight`` bounds the pull-ahead)
        and closing the generator stops the puller thread.
        """

        def ingest(tagged, arrived: float) -> None:
            tenant, cloud = tagged
            self.submit(tenant, cloud, arrived=arrived)

        with Inbox(
            requests,
            capacity=self.engine.in_flight,
            name="repro-serve-tenants-pull",
            clock=self._clock,
        ) as inbox:
            while (
                reason := inbox.gather(
                    ingest,
                    self.window.max_clouds,
                    self.window.max_wait,
                    self.backlog,
                )
            ) is not None:
                yield from self.drain(reason=reason)
                if on_stats is not None:
                    for session in self._sessions.values():
                        line = session.telemetry.tick()
                        if line is not None:
                            on_stats(line)

    def close(self) -> None:
        """Close the shared engine."""
        self.engine.close()

    def __enter__(self) -> "MultiTenantServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
