"""Zero-copy array transport between the router and engine shards.

The multiprocess queues that carry requests and results only ever ship
small control tuples; the point clouds and result tensors themselves
travel through ``multiprocessing.shared_memory`` segments.  Each side
that *produces* bulk data owns one :class:`ShmArena` — the router owns a
request arena per shard, every worker owns a response arena — and packs
arrays into it with one ``memcpy``.  The consumer attaches the segment
once and maps :class:`ArrayRef` descriptors back to numpy views without
copying; it signals consumption with a ``free`` message so the owner can
recycle the blocks.  Compared to pickling ndarrays through a queue
(serialise + two pipe copies + deserialise) that is two copies instead
of four-plus and no byte-level encode at all.

Allocation is a first-fit block pool over a fixed-size arena.  When a
payload does not fit (arena exhausted by in-flight traffic, or a cloud
larger than the arena), :meth:`ShmArena.pack` degrades per-array to an
*inline* ref that carries the bytes through the queue — correctness
never depends on arena capacity.  :class:`PickleChannel` is that
degraded mode as a deliberate transport choice (``--transport pickle``),
kept as the comparison baseline and for platforms without shm.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ArrayRef", "ShmArena", "ShmPeer", "PickleChannel"]

_ALIGN = 64  # block granularity; keeps views cache-line aligned


@dataclass(frozen=True)
class ArrayRef:
    """Descriptor for one array in flight.

    Either a window into a named shm segment (``segment`` set, ``data``
    None) or an inline payload (``segment`` None, ``data`` holding the
    bytes).  Descriptors are plain picklable values — they are what the
    control queues actually carry.
    """

    segment: str | None
    offset: int
    shape: tuple[int, ...]
    dtype: str
    data: bytes | None = None

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize

    @property
    def inline(self) -> bool:
        return self.segment is None


def _round_up(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class ShmArena:
    """Owner side of one shared-memory segment: a first-fit block pool.

    The owner packs arrays in and reclaims blocks when the peer reports
    them consumed.  ``reclaim`` is driven by ``free`` messages on the
    control queue, so refcounts never need cross-process atomics — every
    block has exactly one producer (the owner) and one consumer.
    """

    def __init__(self, nbytes: int, *, name: str | None = None):
        if nbytes < _ALIGN:
            raise ValueError(f"arena must be at least {_ALIGN} bytes")
        nbytes = _round_up(nbytes)
        self._shm = shared_memory.SharedMemory(
            create=True,
            size=nbytes,
            name=name or f"repro-{uuid.uuid4().hex[:12]}",
        )
        self.nbytes = nbytes
        #: sorted list of (offset, length) holes
        self._free: list[tuple[int, int]] = [(0, nbytes)]
        self._live: dict[int, int] = {}  # offset -> length
        self.spilled = 0  # arrays that fell back to inline transport

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def allocated(self) -> int:
        """Bytes currently handed out (zero once all refs are reclaimed)."""
        return sum(self._live.values())

    # -- allocation ----------------------------------------------------------

    def _alloc(self, nbytes: int) -> int | None:
        need = _round_up(max(nbytes, 1))
        for i, (off, length) in enumerate(self._free):
            if length >= need:
                if length == need:
                    del self._free[i]
                else:
                    self._free[i] = (off + need, length - need)
                self._live[off] = need
                return off
        return None

    def _release(self, offset: int) -> None:
        length = self._live.pop(offset)
        # insert the hole back, coalescing with neighbours
        self._free.append((offset, length))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for off, ln in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + ln)
            else:
                merged.append((off, ln))
        self._free = merged

    # -- packing -------------------------------------------------------------

    def pack(self, array: np.ndarray) -> ArrayRef:
        """Copy one array into the arena; inline fallback when full."""
        array = np.ascontiguousarray(array)
        offset = self._alloc(array.nbytes)
        if offset is None:
            self.spilled += 1
            return ArrayRef(None, 0, array.shape, array.dtype.str,
                            data=array.tobytes())
        view = np.ndarray(array.shape, dtype=array.dtype,
                          buffer=self._shm.buf, offset=offset)
        view[...] = array
        del view
        return ArrayRef(self._shm.name, offset, array.shape, array.dtype.str)

    def pack_many(self, arrays) -> list[ArrayRef]:
        return [self.pack(a) for a in arrays]

    def reclaim(self, refs) -> None:
        """Return the blocks behind ``refs`` to the pool (``None``
        placeholders, inline refs, and refs from other segments are
        ignored)."""
        for ref in refs:
            if ref is None:
                continue
            if ref.segment == self._shm.name and ref.offset in self._live:
                self._release(ref.offset)

    def close(self) -> None:
        """Unlink the segment.  Owner-side close; call once."""
        self._free = []
        self._live = {}
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked (e.g. worker died)
            pass


class ShmPeer:
    """Consumer side: attach segments lazily, map refs to views."""

    def __init__(self):
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def unpack(self, ref: ArrayRef, *, copy: bool = False) -> np.ndarray:
        """Materialise one ref.

        With ``copy=False`` shm refs come back as zero-copy views into
        the segment — valid only until the owner reclaims the block, so
        callers that retain arrays past the reply must pass
        ``copy=True``.
        """
        if ref.inline:
            arr = np.frombuffer(ref.data, dtype=ref.dtype).reshape(ref.shape)
            return arr.copy() if copy else arr
        shm = self._segments.get(ref.segment)
        if shm is None:
            shm = shared_memory.SharedMemory(name=ref.segment)
            self._segments[ref.segment] = shm
        view = np.ndarray(ref.shape, dtype=ref.dtype,
                          buffer=shm.buf, offset=ref.offset)
        return view.copy() if copy else view

    def unpack_many(self, refs, *, copy: bool = False) -> list[np.ndarray]:
        return [self.unpack(ref, copy=copy) for ref in refs]

    def unlink(self, name: str) -> None:
        """Unlink segment ``name`` on behalf of an owner that died before
        it could; a segment that is already gone is ignored."""
        shm = self._segments.pop(name, None)
        try:
            if shm is None:
                shm = shared_memory.SharedMemory(name=name)
            shm.unlink()
        except FileNotFoundError:
            pass
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # a live view; the mapping goes with it
                pass

    def close(self) -> None:
        """Detach every attached segment (does not unlink — the owner
        does that)."""
        for shm in self._segments.values():
            try:
                shm.close()
            except BufferError:
                # A live numpy view still points into the buffer; the
                # process is exiting anyway, so leave the mapping to the
                # OS rather than crash the shutdown path.
                pass
        self._segments = {}


@dataclass
class PickleChannel:
    """Baseline transport: every array ships inline through the queue.

    Implements the same pack/unpack/reclaim surface as the shm pair so
    the router and workers are transport-agnostic.
    """

    spilled: int = 0
    allocated: int = field(default=0, init=False)

    @property
    def name(self) -> str:
        return ""

    def pack(self, array: np.ndarray) -> ArrayRef:
        array = np.ascontiguousarray(array)
        return ArrayRef(None, 0, array.shape, array.dtype.str,
                        data=array.tobytes())

    def pack_many(self, arrays) -> list[ArrayRef]:
        return [self.pack(a) for a in arrays]

    def unpack(self, ref: ArrayRef, *, copy: bool = False) -> np.ndarray:
        arr = np.frombuffer(ref.data, dtype=ref.dtype).reshape(ref.shape)
        return arr.copy() if copy else arr

    def unpack_many(self, refs, *, copy: bool = False) -> list[np.ndarray]:
        return [self.unpack(ref, copy=copy) for ref in refs]

    def reclaim(self, refs) -> None:  # nothing pooled
        pass

    def close(self) -> None:
        pass
