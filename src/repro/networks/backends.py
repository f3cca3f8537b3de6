"""Point-operation backends: exact global search vs block-parallel.

The PNN backbones never call point operations directly; they go through a
backend, so the *same trained architecture* can run with the original
global-search operations (PointAcc baseline), or with block-wise
operations over any partitioning strategy (uniform / KD-tree / octree /
Fractal).  The accuracy experiments (Fig. 3, 14, 17) are exactly this
swap.

Both backends are thin views over shared machinery: :class:`ExactBackend`
wraps the reference ops of :mod:`repro.geometry.ops`, and
:class:`BlockBackend` resolves every call through the kernel registry of
:mod:`repro.core.dispatch` — the per-block loop and the fused ragged
CSR kernels are interchangeable (bit-identical) there,
so the backend only carries *which* partition to use and *how* to pick a
kernel (``kernel="auto"`` cost-model dispatch by default).
"""

from __future__ import annotations

import abc
from collections import OrderedDict

import numpy as np

from ..core import blocks as core_blocks
from ..core import bppo, dispatch
from ..geometry import ops as exact_ops
from ..partition.base import Partitioner, get_partitioner
from ..runtime.cache import PartitionCache

__all__ = ["PointOpsBackend", "ExactBackend", "BlockBackend", "make_backend"]


class PointOpsBackend(abc.ABC):
    """Interface consumed by the network stages."""

    name: str = "abstract"

    @abc.abstractmethod
    def sample(self, coords: np.ndarray, num_samples: int) -> np.ndarray:
        """FPS-style sampling: ``(num_samples,)`` indices into ``coords``."""

    @abc.abstractmethod
    def group(
        self, coords: np.ndarray, center_indices: np.ndarray, radius: float, k: int
    ) -> np.ndarray:
        """Ball-query grouping: ``(m, k)`` indices into ``coords``."""

    @abc.abstractmethod
    def interpolate_indices(
        self,
        coords: np.ndarray,
        center_indices: np.ndarray,
        candidate_indices: np.ndarray,
        k: int = 3,
    ) -> tuple[np.ndarray, np.ndarray]:
        """KNN + inverse-distance weights for feature propagation.

        Returns ``(indices, weights)`` of shapes ``(m, k)``; indices are
        global point ids drawn from ``candidate_indices``; weight rows
        sum to one.
        """


class ExactBackend(PointOpsBackend):
    """Original global-search operations (accuracy-lossless anchor)."""

    name = "exact"

    def sample(self, coords: np.ndarray, num_samples: int) -> np.ndarray:
        return exact_ops.farthest_point_sample(coords, num_samples)

    def group(self, coords, center_indices, radius, k):
        return exact_ops.ball_query(coords[center_indices], coords, radius, k)

    def interpolate_indices(self, coords, center_indices, candidate_indices, k=3):
        candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
        local = exact_ops.knn_search(
            coords[center_indices], coords[candidate_indices], k
        )
        idx = candidate_indices[local]
        coords = np.asarray(coords, dtype=np.float64)
        weights = exact_ops.idw_weights(coords[center_indices], coords[idx])
        return idx, weights


class BlockBackend(PointOpsBackend):
    """Block-parallel operations over a partitioning strategy.

    Partitions are cached per coordinate set through the runtime's
    shared :class:`~repro.runtime.cache.PartitionCache` (keyed by content
    hash), so a forward pass that calls sample/group/interpolate on the
    same level partitions once — matching the hardware, where Fractal
    runs once per stage input.  The cache also carries the ragged CSR
    layout of each partition, so repeated ragged-kernel calls never
    rebuild it.

    Every operation resolves through the kernel registry of
    :mod:`repro.core.dispatch`.  ``kernel`` picks the implementation:
    ``"auto"`` (default) lets the cost model choose per call — from
    *measured* per-block centre counts, since the backend always holds
    the concrete centre ids — while ``"loop" | "ragged"`` pin one path.
    The parity suite guarantees bit-identical results, so the choice
    only affects speed.

    ``batched`` is the legacy flag of the pre-dispatch API: ``False``
    pins the serial per-block loop, ``True`` (old default) means
    cost-model dispatch.  Use ``kernel`` in new code.

    ``cache`` lets a caller share an existing partition cache — the
    serving engine passes its own, so a model forward inside the engine
    reuses (and warms) the same content-addressed partitions as the raw
    BPPO traffic.
    """

    #: Distinct partitions whose per-op derived state (measured centre
    #: bincounts, float64-normalised coords) is memoised at a time.  A
    #: forward pass touches one partition per level; MSG touches the
    #: same one once per scale — the quadratic-ish recompute this bound
    #: exists to kill.
    _SESSION_BOUND = 8

    def __init__(
        self,
        partitioner: Partitioner,
        cache_size: int = 8,
        *,
        kernel: str = "auto",
        batched: bool | None = None,
        cache: PartitionCache | None = None,
    ):
        self.partitioner = partitioner
        self.name = partitioner.name
        # Legacy flag maps onto the dispatcher only when no explicit
        # kernel was chosen — same precedence as BatchExecutor's
        # use_batched_ops, so the two APIs never disagree.
        if batched is False and kernel == "auto":
            kernel = "loop"
        self.kernel = dispatch.validate_kernel(kernel)
        self._cache = (
            cache if cache is not None
            else PartitionCache(partitioner, maxsize=cache_size)
        )
        # id(structure) -> session memo; the session holds a strong ref
        # to its structure, so an id is never reused while mapped.
        self._sessions: "OrderedDict[int, _StructureSession]" = OrderedDict()

    def _session(self, coords: np.ndarray) -> "_StructureSession":
        structure, _ = self._cache.get(coords)
        key = id(structure)
        session = self._sessions.get(key)
        if session is None:
            session = _StructureSession(structure)
            self._sessions[key] = session
            while len(self._sessions) > self._SESSION_BOUND:
                self._sessions.popitem(last=False)
        else:
            self._sessions.move_to_end(key)
        return session

    def _structure(self, coords: np.ndarray) -> core_blocks.BlockStructure:
        return self._session(coords).structure

    def _measured_counts(
        self, session: "_StructureSession", center_indices
    ) -> np.ndarray | None:
        """Real per-block centre counts — the backend always holds the
        concrete centre ids, so the cost model never has to estimate.
        ``None`` when a pinned kernel would never consult the cost model.
        Memoised per (structure, centre-array) pair: every MSG scale
        groups the same centres over the same structure, and the
        bincount over the owner map is pure in both.
        """
        if self.kernel != "auto":
            return None
        return session.measured_counts(center_indices)

    def sample(self, coords: np.ndarray, num_samples: int) -> np.ndarray:
        structure = self._structure(coords)
        quotas = (
            bppo.allocate_samples(structure.block_sizes, num_samples, clamp=True)
            if self.kernel == "auto"
            else None
        )
        indices, _ = dispatch.run_op(
            "fps", structure, coords, num_samples,
            kernel=self.kernel, num_centers=num_samples, center_counts=quotas,
        )
        return indices

    def group(self, coords, center_indices, radius, k):
        session = self._session(coords)
        neighbors, _ = dispatch.run_op(
            "ball_query", session.structure, coords, center_indices, radius, k,
            kernel=self.kernel, num_centers=len(center_indices),
            center_counts=self._measured_counts(session, center_indices),
        )
        return neighbors

    def interpolate_indices(self, coords, center_indices, candidate_indices, k=3):
        session = self._session(coords)
        idx, _ = dispatch.run_op(
            "knn", session.structure, coords, center_indices,
            candidate_indices, k,
            kernel=self.kernel, num_centers=len(center_indices),
            center_counts=self._measured_counts(session, center_indices),
        )
        coords64 = session.coords64(coords)
        weights = exact_ops.idw_weights(coords64[center_indices], coords64[idx])
        return idx, weights


class _StructureSession:
    """Memoised per-partition derived state of :class:`BlockBackend`.

    Everything here is a pure function of ``(structure, input array)``
    and used to be recomputed on every op — once per MSG scale against
    the identical structure and centre set.  Entries key on array
    identity and hold strong references, so ids stay valid while mapped.
    """

    _COUNTS_BOUND = 8

    def __init__(self, structure: core_blocks.BlockStructure):
        self.structure = structure
        self._counts: OrderedDict[int, tuple[object, np.ndarray]] = OrderedDict()
        self._coords64: tuple[object, np.ndarray] | None = None

    def measured_counts(self, center_indices) -> np.ndarray:
        key = id(center_indices)
        hit = self._counts.get(key)
        if hit is not None and hit[0] is center_indices:
            self._counts.move_to_end(key)
            return hit[1]
        counts = np.bincount(
            self.structure.block_of_point()[
                np.asarray(center_indices, dtype=np.int64)
            ],
            minlength=self.structure.num_blocks,
        )
        self._counts[key] = (center_indices, counts)
        while len(self._counts) > self._COUNTS_BOUND:
            self._counts.popitem(last=False)
        return counts

    def coords64(self, coords: np.ndarray) -> np.ndarray:
        hit = self._coords64
        if hit is not None and hit[0] is coords:
            return hit[1]
        normalised = np.asarray(coords, dtype=np.float64)
        self._coords64 = (coords, normalised)
        return normalised


def make_backend(
    name: str,
    *,
    max_points_per_block: int = 64,
    kernel: str = "auto",
    batched: bool | None = None,
    cache: PartitionCache | None = None,
) -> PointOpsBackend:
    """Factory: ``exact`` or any partitioner name from :mod:`repro.partition`.

    ``kernel`` selects the block-op implementation (``auto`` cost-model
    dispatch by default); ``batched`` is the legacy boolean equivalent
    (``False`` → ``"loop"``); ``cache`` shares an existing partition
    cache (ignored by the exact backend, which partitions nothing).
    """
    if name == "exact":
        return ExactBackend()
    return BlockBackend(
        get_partitioner(name, max_points_per_block=max_points_per_block),
        kernel=kernel,
        batched=batched,
        cache=cache,
    )
