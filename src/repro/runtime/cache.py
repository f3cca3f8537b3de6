"""Content-addressed caches: the partition cache shared by the execution
engine and the network backends, and the result window every request
dedup surface replays from.

Partitioning is the preprocessing cost the paper works so hard to bound
(Fig. 5); in a serving loop the same cloud frequently recurs — repeated
frames of a slow-moving sensor, retries, popular assets — so the runtime
keys finished :class:`~repro.core.blocks.BlockStructure` objects by a
content hash of the coordinates and replays them instead of re-sorting.
The cache is a thread-safe LRU keyed by the exact float64 content, so
a structure is only ever replayed for the cloud it was built from.

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
from typing import TYPE_CHECKING, Callable

import numpy as np

from .. import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.blocks import BlockStructure
    from ..core.ragged import RaggedBlocks
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


def content_key(coords: np.ndarray) -> bytes:
    """Digest identifying an array by its exact float64 content.

    Both the partition cache and request deduplication key through
    here.  A coarser rendering would let two clouds that differ below
    its resolution share one entry, and the second would silently
    receive a partition (or result) computed for the first.  The shape
    is hashed, so arrays differing only in length never collide with a
    prefix, and so is the input dtype: same-shape arrays whose values
    agree under different dtypes (all-zero int64 vs all-zero float64)
    never share a key.
    """
    coords = np.asarray(coords)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(coords.dtype.str.encode())
    digest.update(str(coords.shape).encode())
    digest.update(np.ascontiguousarray(coords, dtype=np.float64).tobytes())
    return digest.digest()


def result_key(coords: np.ndarray, features: np.ndarray | None) -> bytes:
    """The request-deduplication identity of one cloud: the
    :func:`content_key` of coords, plus that of features when present.

    Every dedup surface (``stream()``, ``run(fuse=True)``, the windowed
    and tenant servers, the shard worker) must key through here so
    their replay decisions can never diverge.
    """
    key = content_key(coords)
    if features is not None:
        key += content_key(features)
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


class PartitionCache:
    """Thread-safe LRU of partition results keyed by cloud content.

    Args:
        partitioner: any callable mapping ``(n, 3)`` coordinates to a
            :class:`BlockStructure` (every :class:`repro.partition.base.
            Partitioner` qualifies).
        maxsize: retained structures; least-recently-used entries are
            evicted first.
    """

    def __init__(
        self,
        partitioner: Callable[[np.ndarray], "BlockStructure"],
        maxsize: int = 64,
    ):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.partitioner = partitioner
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[bytes, "BlockStructure"] = OrderedDict()
        self._lock = threading.Lock()
        _ALL_CACHES.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, coords: np.ndarray) -> tuple["BlockStructure", bool]:
        """Return ``(structure, was_cached)`` for ``coords``."""
        structure, outcome = self.acquire(coords)
        return structure, outcome == "warm"

    def acquire(self, coords: np.ndarray) -> tuple["BlockStructure", str]:
        """Serve ``coords``, reporting how: ``(structure, outcome)``.

        ``outcome`` is ``"warm"`` (exact hit) or ``"cold"`` (full build).

        The partitioner runs outside the lock, so concurrent misses on
        the same new cloud may both partition it (identical results, one
        wasted computation) — cheaper than serialising every caller
        behind the partitioner.
        """
        key = content_key(coords)
        with self._lock:
            structure = self._entries.get(key)
            if structure is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                obs.inc("repro_partitions_warm")
                return structure, "warm"
            self.misses += 1
        with (
            obs.span("partition.build", points=len(coords))
            if obs.enabled()
            else obs.NULL_SPAN
        ):
            structure = self.partitioner(coords)
        with self._lock:
            self._entries[key] = structure
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        obs.inc("repro_partitions_cold")
        return structure, "cold"

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
        """:meth:`acquire` plus the memoized ragged layout and the
        outcome string (the fused window path feeds it to telemetry)."""
        from ..core.ragged import ragged_of

        structure, outcome = self.acquire(coords)
        return structure, ragged_of(structure, coords), outcome

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
