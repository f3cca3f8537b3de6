"""Kernel registry and cost-model dispatch for block-parallel point ops.

Every block-parallel operation is registered under two kernel names,
``loop`` and ``ragged``, with one uniform
``(structure, coords, ...) -> (result, trace)`` signature.  This module
is the single place that knows which one to run:

- :data:`KERNELS` maps ``op name → kernel name → callable``;
- :func:`choose_kernel` picks a kernel from the partition's block-size
  statistics;
- :func:`run_op` resolves and executes in one call — the entry point of
  the offline network backend (:class:`repro.networks.backends.
  BlockBackend`).  The serving engine does not come through here: its
  fused buckets call the ``*_on_layout`` ops of :mod:`repro.core.ragged`
  directly.

Only FPS has two implementations: the per-block loop
(:func:`repro.core.bppo.block_fps`) and the ragged CSR recurrence
(:func:`repro.core.ragged.ragged_fps`), bit-identical under the parity
suite and differing only in speed.  The neighbour searches
(``ball_query``, ``knn``, ``interpolate``) and ``gather`` register their
one per-block implementation (:mod:`repro.core.bppo` ``block_*``) under
both names, so resolving them never consults the cost model.

FPS rule (``kernel="auto"``)
----------------------------

FPS has no GEMM regime — every step of its recurrence is an elementwise
pass plus an argmax, whatever the block size — so its unit of cost is
the recurrence *step*: the loop takes one Python trip per sample per
block (``sum(quotas)``), the ragged kernel one trip per sample of the
fullest block (``max(quotas)``) with every block riding along.  A
ragged step (three coordinate columns plus a segment argmax) costs about
two loop steps, so FPS goes ``ragged`` once the other blocks together
run more steps than the largest block alone, else ``loop``.  A
single-block partition leaves nothing to fuse (``loop``).  The rule is
:func:`repro.core.ragged.fps_runs_serial`; ``fps_on_layout`` applies it
to its own quotas, so the served path follows it too.

Callers that hold the FPS quotas pass them as ``center_counts`` and the
rule uses them verbatim; otherwise the requested samples are spread
proportionally to block population (what the quotas are, up to
rounding).  Misprediction costs speed only, never results.

Overrides
---------

Precedence is **explicit argument > environment > auto**: a concrete
``kernel=`` argument always wins; the environment variable
:data:`KERNEL_ENV` (``REPRO_KERNEL``) only fills in when the caller left
the choice at ``"auto"`` — a benchmarking and debugging hook; the cost
model decides whatever remains unresolved.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from . import bppo, ragged
from .. import obs
from .blocks import BlockStructure

__all__ = [
    "AGG_ENV",
    "AGG_NAMES",
    "BUILD_KERNEL_NAMES",
    "GATHER_ELEM_SECONDS",
    "KERNELS",
    "KERNEL_NAMES",
    "KERNEL_ENV",
    "MATMUL_MAC_SECONDS",
    "choose_agg",
    "choose_kernel",
    "mlp_row_macs",
    "resolve_agg",
    "resolve_kernel",
    "run_build",
    "run_op",
    "validate_agg",
    "validate_kernel",
]

#: Environment variable forcing a kernel (``loop | ragged`` to pin one,
#: ``auto`` / unset for the cost model).
KERNEL_ENV = "REPRO_KERNEL"

#: Accepted kernel selectors, ``auto`` first (the default everywhere).
KERNEL_NAMES = ("auto", "loop", "ragged")

#: op name → kernel name → implementation.  All entries of one op take the
#: same arguments and return bit-identical ``(result, trace)``.  Only FPS
#: has two implementations; every other op is one per-block function
#: under both names.
KERNELS: dict[str, dict[str, Callable]] = {
    "fps": {"loop": bppo.block_fps, "ragged": ragged.ragged_fps},
    "ball_query": dict.fromkeys(KERNEL_NAMES[1:], bppo.block_ball_query),
    "knn": dict.fromkeys(KERNEL_NAMES[1:], bppo.block_knn),
    "interpolate": dict.fromkeys(KERNEL_NAMES[1:], bppo.block_interpolate),
    "gather": dict.fromkeys(KERNEL_NAMES[1:], bppo.block_gather),
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
    """Pick ``loop | ragged`` for one op call from block stats.

    Args:
        op: operation name (a :data:`KERNELS` key).
        structure: the partition the op will run over.
        num_centers: total FPS samples; ``None`` assumes one per point.
        center_counts: measured ``(num_blocks,)`` per-block FPS quotas.
            When given, they replace the population-proportion estimate,
            so skewed partitions dispatch on their real step counts.

    Returns:
        ``fps``: the kernel running fewer estimated recurrence steps (see
        the module docstring).  Every other op has one implementation,
        so any registered name is right and ``loop`` is returned.
    """
    sizes = structure.block_sizes.astype(np.float64)
    total = sizes.sum()
    if total == 0:
        return "loop"
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
    if op != "fps" or ragged.fps_runs_serial(centers_est):
        return "loop"  # nothing to choose, or the fullest block dominates
    return "ragged"


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
    model (with the FPS quotas as ``center_counts`` when the caller has
    them) — unless the op has one implementation registered under every
    name, which is returned as is.
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


#: One cold build; kept because the benchmark's probe races run_build over it.
BUILD_KERNEL_NAMES = ("auto",)


def run_build(
    partitioner,
    coords: np.ndarray,
    num_samples: int,
    kernel: str = "auto",
):
    """Build a partition and its FPS sample set: the cold path in one call.

    Runs ``partitioner(coords)`` followed by the FPS ``kernel`` that
    :func:`run_op` resolves (``REPRO_KERNEL`` or the cost model for
    ``"auto"``).  Returns ``(structure, sampled, fps_trace)``.
    """
    structure = partitioner(coords)
    sampled, trace = run_op(
        "fps", structure, coords, num_samples,
        kernel=kernel, num_centers=num_samples,
    )
    return structure, sampled, trace


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
