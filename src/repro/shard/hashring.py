"""Consistent hashing for the sharded serving front-end.

The router's placement problem: spread request keys across N engine
shards so that (a) every shard owns a near-equal share, (b) the same key
always lands on the same shard — the property that keeps each shard's
``PartitionCache`` and dedup window hot for its slice of the catalog —
and (c) adding or removing one shard remaps only ~1/N of the key space,
so a rebalance never flushes every warm cache at once.

:class:`HashRing` is the classic construction: every shard contributes
``replicas`` virtual nodes, each a 64-bit blake2b point on a ring; a key
hashes to a point and is owned by the first virtual node clockwise from
it.  The ring is rebuilt from the *sorted* shard set on every membership
change, so routing is a pure function of the member set — two routers
holding the same shards agree on every key regardless of join order.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["HashRing"]


def _point(label: bytes) -> int:
    """64-bit ring position of one label (virtual node or key)."""
    return int.from_bytes(
        hashlib.blake2b(label, digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Args:
        shards: initial shard names.
        replicas: virtual nodes per shard.  More replicas tighten the
            balance (share deviation shrinks like ``1/sqrt(replicas)``)
            at a small ring-rebuild cost; 128 keeps every shard's share
            within roughly a factor of two of fair for small fleets.
    """

    def __init__(self, shards=(), *, replicas: int = 128):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._shards: set[str] = set()
        self._points = np.empty(0, dtype=np.uint64)
        self._owners: list[str] = []
        for shard in shards:
            self.add(shard)

    # -- membership ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: str) -> bool:
        return shard in self._shards

    @property
    def shards(self) -> tuple[str, ...]:
        """Member shards, sorted (the canonical order the ring is built
        from)."""
        return tuple(sorted(self._shards))

    def add(self, shard: str) -> None:
        """Add a shard; no-op if already a member."""
        if not shard:
            raise ValueError("shard name must be non-empty")
        if shard in self._shards:
            return
        self._shards.add(shard)
        self._rebuild()

    def remove(self, shard: str) -> None:
        """Remove a shard; future keys rehash onto the survivors."""
        if shard not in self._shards:
            raise KeyError(f"unknown shard {shard!r}")
        self._shards.remove(shard)
        self._rebuild()

    def _rebuild(self) -> None:
        """Recompute the sorted ring from the member set.

        Ties between virtual-node points (vanishingly rare at 64 bits)
        break by shard name, so the ring is deterministic even then.
        """
        entries: list[tuple[int, str]] = []
        for shard in sorted(self._shards):
            for i in range(self.replicas):
                entries.append((_point(f"{shard}#{i}".encode()), shard))
        entries.sort()
        self._points = np.array(
            [p for p, _ in entries], dtype=np.uint64
        )
        self._owners = [s for _, s in entries]

    # -- routing -------------------------------------------------------------

    def route(self, key: bytes) -> str:
        """The shard owning ``key`` — first virtual node clockwise."""
        if not self._owners:
            raise RuntimeError("cannot route on an empty ring")
        pos = _point(key)
        i = int(np.searchsorted(self._points, np.uint64(pos), side="left"))
        if i == len(self._owners):  # wrap past the highest point
            i = 0
        return self._owners[i]
