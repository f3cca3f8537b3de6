"""Kernel registry and cost-model dispatch for block-parallel point ops.

Every block-parallel operation now has three interchangeable
implementations — the per-block **loop** (:mod:`repro.core.bppo`
``block_*``), the padded **stacked** fast path (``block_*_batched``), and
the fused **ragged** CSR kernels (:mod:`repro.core.ragged`) — all
bit-identical under the parity suite, differing only in speed.  This
module is the single place that knows which one to run:

- :data:`KERNELS` maps ``op name → kernel name → callable`` with the
  uniform ``(structure, coords, ...) -> (result, trace)`` signature;
- :func:`choose_kernel` picks a kernel from the partition's block-size
  statistics (see the dispatch table below);
- :func:`run_op` resolves and executes in one call — the entry point the
  network backends and the batch executor go through.

Dispatch table (``kernel="auto"``)
----------------------------------

The unit of cost of the neighbour searches (``ball_query``, ``knn``,
``interpolate``) is a block's *work product* — centres × search-space
size, the number of distance evaluations the block needs.  Auto dispatch
assigns each block's product to one of three regimes and picks the kernel
owning the largest share of total work:

======== ============================================ =====================
kernel   regime (per-block work product)              why it wins there
======== ============================================ =====================
stacked  ``<= _STACK_SMALL`` (128)                    dispatch overhead
                                                      dominates; padding
                                                      waste is tiny
ragged   ``<= RAGGED_BLOCK_MAX`` (512)                too big to pad, too
                                                      small to amortise a
                                                      per-block Python trip
loop     ``> RAGGED_BLOCK_MAX``                       each block is
                                                      dominated by its own
                                                      GEMM; fusion buys
                                                      nothing
======== ============================================ =====================

**FPS has no GEMM regime** — every step of its recurrence is an
elementwise pass plus an argmax, whatever the block size — so its unit
of cost is the recurrence *step*: the loop takes one Python trip per
sample per block (``sum(quotas)``), the ragged kernel one trip per sample
of the fullest block (``max(quotas)``) with every block riding along.  A
ragged step (three coordinate columns plus a segment argmax) costs about
two loop steps, so FPS goes ``ragged`` once the other blocks together
run more steps than the largest block alone, else ``loop``; the stack
wins nowhere (``benchmarks/results/ragged_kernels.txt``).

Two shortcuts skip the arithmetic: a single-block partition leaves
nothing to stack or fuse (``loop``), and an op registered with one
implementation under every name (``gather``) is resolved without
consulting the cost model at all — the arithmetic costs more than the
gather.

Centre counts are exact when the caller already groups its centres by
block — pipeline stages know how many centres each block received from
the previous stage — so :func:`choose_kernel` accepts **measured**
per-block counts (``center_counts``) and uses them verbatim.  Callers
that only know the total fall back to spreading the requested centres
proportionally to block population — exact for FPS quotas, a close proxy
elsewhere.  Misprediction costs speed only, never results.

Overrides
---------

Precedence is **explicit argument > environment > auto**: a concrete
``kernel=`` argument (or ``--kernel`` CLI flag) always wins; the
environment variable :data:`KERNEL_ENV` (``REPRO_KERNEL``) only fills in
when the caller left the choice at ``"auto"`` — the benchmarking hook
used by ``benchmarks/bench_ragged_kernels.py``; the cost model decides
whatever remains unresolved.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from . import bppo, ragged
from .. import obs
from .blocks import BlockStructure
from .bppo import _STACK_SMALL
from .ragged import RAGGED_BLOCK_MAX

__all__ = [
    "AGG_ENV",
    "AGG_NAMES",
    "BUILD_KERNEL_ENV",
    "BUILD_KERNEL_NAMES",
    "GATHER_ELEM_SECONDS",
    "KERNELS",
    "KERNEL_NAMES",
    "KERNEL_ENV",
    "MATMUL_MAC_SECONDS",
    "choose_agg",
    "choose_build_kernel",
    "choose_kernel",
    "mlp_row_macs",
    "resolve_agg",
    "resolve_build_kernel",
    "resolve_kernel",
    "run_build",
    "run_op",
    "validate_agg",
    "validate_build_kernel",
    "validate_kernel",
]

#: Environment variable forcing a kernel (``loop | stacked | ragged`` to
#: pin one, ``auto`` / unset for the cost model).
KERNEL_ENV = "REPRO_KERNEL"

#: Accepted kernel selectors, ``auto`` first (the default everywhere).
KERNEL_NAMES = ("auto", "loop", "stacked", "ragged")

#: op name → kernel name → implementation.  All entries of one op take the
#: same arguments and return bit-identical ``(result, trace)``.
KERNELS: dict[str, dict[str, Callable]] = {
    "fps": {
        "loop": bppo.block_fps,
        "stacked": bppo.block_fps_batched,
        "ragged": ragged.ragged_fps,
    },
    "ball_query": {
        "loop": bppo.block_ball_query,
        "stacked": bppo.block_ball_query_batched,
        "ragged": ragged.ragged_ball_query,
    },
    "knn": {
        "loop": bppo.block_knn,
        "stacked": bppo.block_knn_batched,
        "ragged": ragged.ragged_knn,
    },
    "interpolate": {
        "loop": bppo.block_interpolate,
        "stacked": bppo.block_interpolate_batched,
        "ragged": ragged.ragged_interpolate,
    },
    # Gathering is one fancy-indexing pass whichever way the blocks are
    # laid out: the same function under every name.
    "gather": dict.fromkeys(("loop", "stacked", "ragged"), bppo.block_gather),
}


def validate_kernel(kernel: str) -> str:
    """Return ``kernel`` unchanged or raise — the one shared name check."""
    if kernel not in KERNEL_NAMES:
        raise ValueError(
            f"kernel must be one of {KERNEL_NAMES}, got {kernel!r}"
        )
    return kernel


def choose_kernel(
    op: str,
    structure: BlockStructure,
    num_centers: int | None = None,
    center_counts: np.ndarray | None = None,
) -> str:
    """Pick ``loop | stacked | ragged`` for one op call from block stats.

    Args:
        op: operation name (a :data:`KERNELS` key).
        structure: the partition the op will run over.
        num_centers: total query centres (sample count for ``fps``,
            centre rows for the neighbour searches); ``None`` assumes one
            centre per point.
        center_counts: measured ``(num_blocks,)`` per-block centre counts
            — e.g. the FPS quotas, or a bincount of the previous stage's
            sampled centres over the owner map.  When given, it replaces
            the population-proportion estimate, so skewed partitions
            dispatch on their real work distribution.

    Returns:
        The kernel name owning the largest share of estimated work
        (recurrence steps for ``fps``, see the module docstring).
    """
    sizes = structure.block_sizes.astype(np.float64)
    total = sizes.sum()
    if total == 0:
        return "stacked"
    if center_counts is not None:
        centers_est = np.asarray(center_counts, dtype=np.float64)
        if centers_est.shape != (structure.num_blocks,):
            raise ValueError(
                f"center_counts must be ({structure.num_blocks},), got "
                f"{centers_est.shape}"
            )
    else:
        m = total if num_centers is None else float(num_centers)
        centers_est = m * sizes / total
    if structure.num_blocks == 1:
        return "loop"  # nothing to stack or fuse
    if op == "fps":
        fullest = centers_est.max()
        return "ragged" if centers_est.sum() - fullest > fullest else "loop"
    products = centers_est * structure.search_sizes
    work_small = products[products <= _STACK_SMALL].sum()
    mid = (products > _STACK_SMALL) & (products <= RAGGED_BLOCK_MAX)
    work_mid = products[mid].sum()
    work_big = products[products > RAGGED_BLOCK_MAX].sum()
    best = max(
        ("stacked", work_small), ("ragged", work_mid), ("loop", work_big),
        key=lambda kv: kv[1],
    )
    return best[0]


def resolve_kernel(
    op: str,
    structure: BlockStructure,
    num_centers: int | None = None,
    kernel: str = "auto",
    center_counts: np.ndarray | None = None,
) -> str:
    """Resolve ``kernel`` to a concrete name.

    Precedence: an explicit non-``auto`` ``kernel`` argument wins
    outright; :data:`KERNEL_ENV` fills in only when the argument is
    ``"auto"``; whatever is still ``"auto"`` after that goes to the cost
    model (with measured ``center_counts`` when the caller has them) —
    unless the op has one implementation registered under every name,
    which is returned as is.
    """
    kernel = validate_kernel(kernel)
    if kernel == "auto":
        override = os.environ.get(KERNEL_ENV)
        if override:
            kernel = validate_kernel(override)
    if kernel == "auto":
        names = KERNELS.get(op, {})
        if len(set(names.values())) == 1:
            return next(iter(names))  # one implementation: nothing to choose
        kernel = choose_kernel(op, structure, num_centers, center_counts)
    return kernel


# --------------------------------------------------------------------------
# cold-path build kernels (partition construction on a cache miss)
# --------------------------------------------------------------------------

#: Environment variable forcing a build kernel on cache misses
#: (``build_then_sample | fused`` to pin one, ``auto`` / unset for the
#: cost model).
BUILD_KERNEL_ENV = "REPRO_BUILD"

#: Accepted build-kernel selectors, ``auto`` first.
BUILD_KERNEL_NAMES = ("auto", "build_then_sample", "fused")


def validate_build_kernel(kernel: str) -> str:
    if kernel not in BUILD_KERNEL_NAMES:
        raise ValueError(
            f"build kernel must be one of {BUILD_KERNEL_NAMES}, got {kernel!r}"
        )
    return kernel


def _block_bound(partitioner) -> int:
    """The partitioner's points-per-block target (``th`` / BS)."""
    for attr in ("max_leaf_size", "target_block_size", "block_size"):
        bound = getattr(partitioner, attr, None)
        if bound:
            return int(bound)
    config = getattr(partitioner, "config", None)
    if config is not None and getattr(config, "threshold", 0):
        return int(config.threshold)
    return 256


def choose_build_kernel(partitioner, num_points: int, num_samples: int) -> str:
    """Cost-model choice between the fused and the two-pass cold build.

    The fused build samples each leaf with the per-block loop recurrence
    the moment it is finalized; the two-pass build dispatches its FPS
    through :func:`run_op`.  Sharing the traversal saves a Python
    process nothing measurable, so the two cost the same exactly where
    auto FPS would run the loop anyway — up to two expected blocks, see
    the FPS rule in the module docstring — and there the fused build
    also spares the engine one dispatch.  Beyond that the ragged FPS the
    two-pass build reaches is 2–3x faster than any per-leaf loop (43 vs
    15 ms on an 11.7K-point scene): fusion inverts at scale.  Below one
    sample per expected block the fused path's
    at-least-one-per-leaf eagerness does work the largest-remainder
    allocation will discard.  Partitioners without the leaf hook always
    build-then-sample.
    """
    from .coldpath import supports_fused_build

    if not supports_fused_build(partitioner):
        return "build_then_sample"
    expected_blocks = -(-max(1, num_points) // _block_bound(partitioner))
    fuse = expected_blocks <= 2 and num_samples >= expected_blocks
    return "fused" if fuse else "build_then_sample"


def resolve_build_kernel(
    partitioner, num_points: int, num_samples: int, kernel: str = "auto"
) -> str:
    """Resolve a build-kernel selector to a concrete name.

    Same precedence as :func:`resolve_kernel` (explicit > environment >
    cost model), with one safety clamp: ``"fused"`` on a partitioner
    without the leaf hook degrades to ``"build_then_sample"`` — the
    partitioner choice is orthogonal to the build-kernel knob, and a
    hard error here would make ``REPRO_BUILD=fused`` unusable in mixed
    sweeps.
    """
    from .coldpath import supports_fused_build

    kernel = validate_build_kernel(kernel)
    if kernel == "auto":
        override = os.environ.get(BUILD_KERNEL_ENV)
        if override:
            kernel = validate_build_kernel(override)
    if kernel == "auto":
        kernel = choose_build_kernel(partitioner, num_points, num_samples)
    if kernel == "fused" and not supports_fused_build(partitioner):
        kernel = "build_then_sample"
    return kernel


def run_build(
    partitioner,
    coords: np.ndarray,
    num_samples: int,
    kernel: str = "auto",
):
    """Build a partition and its FPS sample set in one dispatched call.

    Returns ``(structure, sampled, fps_trace, name)`` where ``name`` is
    the build kernel that ran.  Both kernels are bit-identical; the fused
    one interleaves per-leaf FPS with tree construction
    (:func:`repro.core.coldpath.fused_build_and_sample`), the two-pass
    one runs ``partitioner(coords)`` followed by the FPS kernel
    :func:`run_op` resolves (``REPRO_KERNEL`` or the cost model).
    """
    from .coldpath import fused_build_and_sample

    name = resolve_build_kernel(partitioner, len(coords), num_samples, kernel)
    with (
        obs.span("build." + name, points=len(coords), samples=num_samples)
        if obs.enabled()
        else obs.NULL_SPAN
    ):
        if name == "fused":
            structure, sampled, trace = fused_build_and_sample(
                partitioner, coords, num_samples
            )
        else:
            structure = partitioner(coords)
            sampled, trace = run_op(
                "fps", structure, coords, num_samples, num_centers=num_samples
            )
    return structure, sampled, trace, name


# --------------------------------------------------------------------------
# aggregation order (the networks' MLP/aggregate op class)
# --------------------------------------------------------------------------

#: Environment variable forcing a set-abstraction aggregation order
#: (``eager | delayed`` to pin one, ``auto`` / unset for the cost model).
AGG_ENV = "REPRO_AGG"

#: Accepted aggregation selectors, ``auto`` first.  ``eager`` is the
#: textbook gather-then-MLP order (gather neighbour inputs, run the
#: shared MLP over ``(m, k, c)``, pool); ``delayed`` is the
#: Mesorasi-style restructure (run the MLP once per point over
#: ``(n, c)``, gather *output* rows by the ball-query indices, pool).
#: Bit-identical — the MLP is pointwise and every row is computed
#: identically regardless of batching (the Dense row-stability
#: contract) — so the choice only moves work between the GEMM and the
#: gather.
AGG_NAMES = ("auto", "eager", "delayed")

#: Fitted per-element costs of the two resources an aggregation order
#: trades between, measured on the CI-class host this repo benchmarks
#: on (numpy + OpenBLAS, float64): one multiply-accumulate of a shared-
#: MLP GEMM at network-typical widths (19-256 channels), and one
#: fancy-index-gathered array element (memory-bound, ~75x a MAC).
#: Absolute values drift with hardware; only their ratio steers
#: :func:`choose_agg`, and the regimes differ by >2x at the crossover.
MATMUL_MAC_SECONDS = 7e-11
GATHER_ELEM_SECONDS = 5e-9


def validate_agg(agg: str) -> str:
    if agg not in AGG_NAMES:
        raise ValueError(f"agg must be one of {AGG_NAMES}, got {agg!r}")
    return agg


def mlp_row_macs(widths) -> int:
    """Multiply-accumulates one input row costs through a shared MLP."""
    widths = list(widths)
    return sum(a * b for a, b in zip(widths, widths[1:]))


def choose_agg(
    num_points: int, num_centers: int, k: int, mlp_widths,
) -> str:
    """Cost-model choice of aggregation order for one SA stage.

    Eager evaluates the MLP on every gathered neighbour row
    (``m * k`` rows) after gathering its *input* channels; delayed
    evaluates it once per point (``n`` rows) and gathers its *output*
    channels.  With the fitted constants above::

        eager   = m*k*W*MAC + m*k*c_in *GATHER
        delayed = n  *W*MAC + m*k*c_out*GATHER

    where ``W`` is the per-row MAC count of the MLP.  Delayed wins
    whenever neighbour groups overlap (``m*k > n`` — every PointNet++-
    style stage, where ``m ~ n/4`` and ``k = 16`` give ~4x overlap)
    unless the MLP widens the channels enough that gathering outputs
    costs more than the spared GEMM work — exactly the Mesorasi
    trade-off.
    """
    widths = list(mlp_widths)
    row_macs = mlp_row_macs(widths)
    gathered = num_centers * k
    eager = gathered * row_macs * MATMUL_MAC_SECONDS + (
        gathered * widths[0] * GATHER_ELEM_SECONDS
    )
    delayed = num_points * row_macs * MATMUL_MAC_SECONDS + (
        gathered * widths[-1] * GATHER_ELEM_SECONDS
    )
    return "delayed" if delayed <= eager else "eager"


def resolve_agg(
    agg: str = "auto",
    *,
    num_points: int | None = None,
    num_centers: int | None = None,
    k: int | None = None,
    mlp_widths=None,
) -> str:
    """Resolve an aggregation selector to ``eager`` or ``delayed``.

    Same precedence as :func:`resolve_kernel`: an explicit non-``auto``
    argument wins, :data:`AGG_ENV` fills in when the argument is
    ``"auto"``, and the cost model decides the rest (falling back to
    ``delayed`` when the caller cannot describe the stage — the winning
    order for every stage shape the backbones actually use).
    """
    agg = validate_agg(agg)
    if agg == "auto":
        override = os.environ.get(AGG_ENV)
        if override:
            agg = validate_agg(override)
    if agg == "auto":
        if None in (num_points, num_centers, k) or mlp_widths is None:
            return "delayed"
        agg = choose_agg(num_points, num_centers, k, mlp_widths)
    return agg


def run_op(
    op: str,
    structure: BlockStructure,
    *args,
    kernel: str = "auto",
    num_centers: int | None = None,
    center_counts: np.ndarray | None = None,
    **kwargs,
):
    """Dispatch one block-parallel op to the chosen kernel.

    ``args``/``kwargs`` are forwarded verbatim to the implementation
    (every kernel of an op shares one signature); ``num_centers`` /
    ``center_counts`` only steer the cost model.  Returns the kernel's
    ``(result, trace)`` pair.
    """
    if op not in KERNELS:
        raise ValueError(f"unknown op {op!r}; expected one of {sorted(KERNELS)}")
    name = resolve_kernel(op, structure, num_centers, kernel, center_counts)
    if obs.enabled():
        with obs.span("op." + op, kernel=name):
            return KERNELS[op][name](structure, *args, **kwargs)
    return KERNELS[op][name](structure, *args, **kwargs)
