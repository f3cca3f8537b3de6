"""Content-addressed caches: the partition cache shared by the execution
engine and the network backends, and the result window every request
dedup surface replays from.

Partitioning is the preprocessing cost the paper works so hard to bound
(Fig. 5); in a serving loop the same cloud frequently recurs — repeated
frames of a slow-moving sensor, retries, popular assets — so the runtime
keys finished :class:`~repro.core.blocks.BlockStructure` objects by a
content hash of the coordinates and replays them instead of re-sorting.
The cache is a thread-safe LRU: the batched executor shares one instance
across its worker threads.

With a :class:`~repro.core.delta.PatchPolicy` attached, the cache also
serves *near* misses — the streaming-frames case where every frame of a
moving sensor hashes differently but barely moved.  :meth:`acquire`
then scans the most recent entries for a frame-delta match and either

- **reuses** the cached structure outright when its rebuild certificate
  proves a from-scratch build of the new coordinates would reproduce it
  bit for bit (jitter under the motion threshold), or
- **patches** it through the incremental fractal updater
  (:mod:`repro.core.update`) for insert/delete/move churn, or
- falls back to a full **cold** build when drift exceeds the policy
  bounds, the certificate fails, or a patch does not survive its own
  sanity checks — never to a wrong structure.

Whole *results* are deduplicated one level up, by :class:`ResultWindow`:
an exact repeat (same :func:`result_key`) is never recomputed but
replayed from the last result of that content.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import weakref
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .. import obs
from ..core.delta import (
    FractalCertificate,
    FrameDelta,
    PatchPolicy,
    certificate_of,
    updater_from_certificate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.blocks import BlockStructure
    from ..core.ragged import RaggedBlocks
    from ..core.update import FractalUpdater
    from .executor import CloudResult

__all__ = ["content_key", "result_key", "replayed", "ResultWindow",
           "WindowSplit", "PartitionCache", "clear_all_partition_caches"]

#: Every live cache instance, so test harnesses can flush partition state
#: globally (``repro.runtime.compiler.clear_caches``) without threading a
#: reference to each backend's private cache.  Weak references: caches
#: die with their owners.
_ALL_CACHES: "weakref.WeakSet[PartitionCache]" = weakref.WeakSet()


def clear_all_partition_caches() -> int:
    """Clear every live :class:`PartitionCache`; returns how many.

    Dropping a cached :class:`BlockStructure` also drops the ragged CSR
    layout riding on it, so this resets *all* derived partition state.
    """
    caches = list(_ALL_CACHES)
    for cache in caches:
        cache.clear()
    return len(caches)


def content_key(coords: np.ndarray, *, dtype=np.float32) -> bytes:
    """Digest identifying an array by content.

    The default float32 rendering suits the *partition* cache: partition
    decisions are far coarser than float32 resolution, and any partition
    of the right index set is valid.  Callers that replay full results
    (request deduplication) must pass ``dtype=np.float64`` — at float32
    two distinct float64 clouds could collide and the second would
    silently receive the first one's results.  The shape is hashed too,
    so arrays differing only in length never collide with a prefix, and
    so are the input and rendered dtypes: same-shape arrays whose raw
    bytes happen to agree under different dtypes (all-zero int64 vs
    all-zero float64) must never share a key, and digests produced at
    different renderings must never collide in a shared map.
    """
    coords = np.asarray(coords)
    source_dtype = coords.dtype.str
    coords = np.ascontiguousarray(coords, dtype=dtype)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(source_dtype.encode())
    digest.update(coords.dtype.str.encode())
    digest.update(str(coords.shape).encode())
    digest.update(coords.tobytes())
    return digest.digest()


def result_key(coords: np.ndarray, features: np.ndarray | None) -> bytes:
    """The request-deduplication identity of one cloud.

    Exact float64 content of coords + features — replaying a *result*
    for a merely float32-equal cloud would be wrong (the pipeline
    computes in float64).  Every dedup surface (``stream()``,
    ``run(fuse=True)``, the windowed and tenant servers, the shard
    worker) must key through here so their replay decisions can never
    diverge.
    """
    key = content_key(coords, dtype=np.float64)
    if features is not None:
        key += content_key(features, dtype=np.float64)
    return key


def replayed(result: "CloudResult", index: int) -> "CloudResult":
    """``result`` served again as cloud ``index``: the replay stamp of
    every dedup surface.  No compute, so ``seconds`` is 0 and the
    partition counts as a hit; the arrays are shared with the canonical
    result, so treat them as read-only."""
    return dataclasses.replace(
        result, index=index, cache_hit=True, seconds=0.0, reused=True
    )


@dataclass
class WindowSplit:
    """One window's entries as :meth:`ResultWindow.split` sorted them."""

    #: ``(slot, coords, features)`` to execute — ``execute_window`` items.
    uniques: list = field(default_factory=list)
    #: ``(slot, result)``: repeats of a result remembered from an earlier
    #: window.
    replays: list = field(default_factory=list)
    #: ``(slot, canonical slot)``: repeats of a unique of this window.
    duplicates: list = field(default_factory=list)
    #: ``key -> slot`` of every keyed unique.
    canonical: dict = field(default_factory=dict)

    @property
    def reused(self) -> int:
        """Entries served without compute."""
        return len(self.replays) + len(self.duplicates)


class ResultWindow:
    """Request dedup: a bounded LRU of canonical results by content.

    Every dedup surface — the windowed and tenant servers, the shard
    worker, ``stream()`` and ``run(fuse=True)`` — runs its windows
    through one of these, so a repeat is replayed the same way on every
    path::

        split = window.split(entries)   # (slot, coords, features, key)
        results, _ = engine.execute_window(split.uniques, pipeline)
        window.complete(results, split)   # now results[slot] for all

    A ``None`` key (dedup off) always executes.  ``reuse_window`` is how
    many distinct canonical results are kept across windows; 0 keeps
    none, leaving within-window dedup only.  A replay bumps its key, so
    a hot result outlives older ones that never repeated.
    """

    def __init__(self, reuse_window: int):
        if reuse_window < 0:
            raise ValueError(f"reuse_window must be >= 0, got {reuse_window}")
        self.reuse_window = reuse_window
        self._done: OrderedDict[bytes, "CloudResult"] = OrderedDict()

    def split(self, entries: Iterable[tuple]) -> WindowSplit:
        """Sort ``(slot, coords, features, key)`` entries into uniques,
        replays (bumped in the LRU) and within-window duplicates."""
        split = WindowSplit()
        for slot, coords, features, key in entries:
            if key is not None and key in self._done:
                self._done.move_to_end(key)
                split.replays.append((slot, self._done[key]))
            elif key is not None and key in split.canonical:
                split.duplicates.append((slot, split.canonical[key]))
            else:
                if key is not None:
                    split.canonical[key] = slot
                split.uniques.append((slot, coords, features))
        return split

    def complete(
        self, results: dict[int, "CloudResult"], split: WindowSplit
    ) -> dict[int, "CloudResult"]:
        """Fill ``results`` (the uniques' results by slot) with the
        replays and duplicates of ``split``, and remember the window's
        canonical results.  Returns ``results``."""
        for slot, result in split.replays:
            results[slot] = replayed(result, slot)
        for slot, original in split.duplicates:
            results[slot] = replayed(results[original], slot)
        for key, slot in split.canonical.items():
            self._done[key] = results[slot]
            while len(self._done) > self.reuse_window:
                self._done.popitem(last=False)
        return results

    def clear(self) -> None:
        """Forget every remembered result."""
        self._done.clear()


@dataclass
class _Entry:
    """One cached partition plus the state the delta protocol needs.

    ``coords``/``patcher``/``live_ids`` stay ``None`` unless a patch
    policy is attached — the exact-hit path never pays for them.  The
    patcher is *consumed* by the patch that uses it (ownership moves to
    the patched entry); a later near-match of the same entry rebuilds
    one from the certificate instead, so a mutated updater can never be
    applied twice.
    """

    structure: "BlockStructure"
    coords: Optional[np.ndarray] = None
    patcher: Optional["FractalUpdater"] = None
    live_ids: Optional[np.ndarray] = None


class PartitionCache:
    """Thread-safe LRU of partition results keyed by cloud content.

    Args:
        partitioner: any callable mapping ``(n, 3)`` coordinates to a
            :class:`BlockStructure` (every :class:`repro.partition.base.
            Partitioner` qualifies).
        maxsize: retained structures; least-recently-used entries are
            evicted first.
        policy: a :class:`~repro.core.delta.PatchPolicy` enabling the
            near-miss delta protocol (off by default: ``None``).
    """

    def __init__(
        self,
        partitioner: Callable[[np.ndarray], "BlockStructure"],
        maxsize: int = 64,
        *,
        policy: PatchPolicy | None = None,
    ):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.partitioner = partitioner
        self.maxsize = maxsize
        self.policy = policy
        self.hits = 0
        self.misses = 0
        self.patches = 0
        self.delta_reuses = 0
        self._entries: OrderedDict[bytes, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        _ALL_CACHES.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cold_builds(self) -> int:
        """Misses that paid a full build (miss minus patched/reused)."""
        return self.misses - self.patches - self.delta_reuses

    def get(self, coords: np.ndarray) -> tuple["BlockStructure", bool]:
        """Return ``(structure, was_cached)`` for ``coords``.

        ``was_cached`` reports exact (warm) hits only; with a patch
        policy attached a near-miss may still be served delta-patched —
        callers that care about the full outcome use :meth:`acquire`.
        """
        structure, outcome, _ = self.acquire(coords)
        return structure, outcome == "warm"

    def acquire(
        self,
        coords: np.ndarray,
        *,
        builder: Callable[[np.ndarray], tuple["BlockStructure", object]] | None = None,
    ) -> tuple["BlockStructure", str, object]:
        """Serve ``coords``, reporting how: ``(structure, outcome, payload)``.

        ``outcome`` is ``"warm"`` (exact hit), ``"reused"``
        (certificate-verified reuse of a near-match — bit-identical to a
        rebuild), ``"patched"`` (incremental updater absorbed the frame
        delta), or ``"cold"`` (full build).  ``payload`` is whatever the
        ``builder`` returned alongside the structure (the fused
        build-and-sample kernel hands back its sample set this way) and
        is ``None`` on every non-cold outcome.

        The partitioner runs outside the lock, so concurrent misses on
        the same new cloud may both partition it (identical results, one
        wasted computation) — cheaper than serialising every worker
        behind the partitioner.
        """
        key = content_key(coords)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                obs.inc("repro_partitions_warm")
                return entry.structure, "warm", None
            self.misses += 1
            candidates = (
                list(reversed(self._entries.values()))[: self.policy.candidates]
                if self.policy is not None
                else []
            )
        if candidates:
            new64 = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
            with (
                obs.span("partition.patch", candidates=len(candidates))
                if obs.enabled()
                else obs.NULL_SPAN
            ) as patch_span:
                for entry in candidates:
                    patched = self._try_patch(entry, new64)
                    if patched is None:
                        continue
                    structure, outcome, new_entry = patched
                    patch_span.annotate(outcome=outcome)
                    with self._lock:
                        if outcome == "reused":
                            self.delta_reuses += 1
                        else:
                            self.patches += 1
                        self._store(key, new_entry)
                    obs.inc(f"repro_partitions_{outcome}")
                    return structure, outcome, None
        with (
            obs.span("partition.build", points=len(coords))
            if obs.enabled()
            else obs.NULL_SPAN
        ):
            if builder is not None:
                structure, payload = builder(coords)
            else:
                structure, payload = self.partitioner(coords), None
        entry_coords = (
            np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
            if self.policy is not None
            else None
        )
        with self._lock:
            self._store(key, _Entry(structure, entry_coords))
        obs.inc("repro_partitions_cold")
        return structure, "cold", payload

    def get_ragged(
        self, coords: np.ndarray
    ) -> tuple["BlockStructure", "RaggedBlocks", bool]:
        """Return ``(structure, ragged_layout, was_cached)`` for ``coords``.

        The ragged CSR layout is built lazily on first request and memoized
        on the structure itself (guarded by a full-precision coordinate
        digest), so it lives and dies with the cached partition — one
        layout build per distinct cloud, shared by every consumer.
        """
        structure, layout, outcome = self.acquire_ragged(coords)
        return structure, layout, outcome == "warm"

    def acquire_ragged(
        self, coords: np.ndarray
    ) -> tuple["BlockStructure", "RaggedBlocks", str]:
        """:meth:`acquire` plus the memoized ragged layout and the full
        outcome string (the fused window path feeds it to telemetry)."""
        from ..core.ragged import ragged_of

        structure, outcome, _ = self.acquire(coords)
        return structure, ragged_of(structure, coords), outcome

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.patches = 0
            self.delta_reuses = 0

    # -- delta protocol ------------------------------------------------------

    def _store(self, key: bytes, entry: _Entry) -> None:
        """Insert under the lock, evicting LRU overflow."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def _take_patcher(self, entry: _Entry) -> Optional["FractalUpdater"]:
        with self._lock:
            patcher, entry.patcher = entry.patcher, None
            return patcher

    def _try_patch(
        self, entry: _Entry, new64: np.ndarray
    ) -> tuple["BlockStructure", str, _Entry] | None:
        """Serve ``new64`` from ``entry`` if the policy allows; else None."""
        policy = self.policy
        old = entry.coords
        if old is None:
            return None
        n_old, n_new = len(old), len(new64)
        if abs(n_new - n_old) > policy.max_churn * max(1, n_old):
            return None  # cheap reject before the O(n) delta
        delta = FrameDelta.between(old, new64, policy.motion_threshold)
        if delta.max_motion > policy.motion_threshold:
            return None  # drift exceeds block bounds: rebuild
        if delta.churn > policy.max_churn:
            return None
        structure = entry.structure
        if delta.pure_jitter:
            cert = certificate_of(structure)
            if cert is not None and cert.verify(structure, new64):
                # A rebuild is proven to reproduce this structure: share it.
                return structure, "reused", _Entry(structure, new64)
        if structure.strategy != "fractal":
            return None
        patcher = self._take_patcher(entry)
        if patcher is None:
            cert = certificate_of(structure)
            if not isinstance(cert, FractalCertificate):
                return None
            patcher = updater_from_certificate(cert, structure, old)
        try:
            live = entry.live_ids
            if live is None:
                live = np.arange(n_old, dtype=np.int64)
            if delta.n_deleted:
                patcher.remove(live[delta.retained:])
            if len(delta.moved):
                patcher.move(live[delta.moved], new64[delta.moved])
            if delta.n_inserted:
                patcher.insert(new64[delta.retained:])
            patched, new_live = patcher.structure()
            # Sanity gate: a corrupted patch must rebuild, never serve.
            if patched.num_points != n_new:
                raise ValueError("patched structure lost points")
            if not np.array_equal(patcher.coords(), new64):
                raise ValueError("patched coordinates misaligned with frame")
            patched.validate()
        except Exception:
            return None
        return patched, "patched", _Entry(patched, new64, patcher, new_live)
