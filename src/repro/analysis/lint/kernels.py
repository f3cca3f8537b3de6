"""Kernel-routing invariants: REP001 (dispatch) and REP002 (env reads).

The repo's headline guarantee — every kernel name of an op (`loop` and
`ragged`) gives bit-identical results and is chosen one way — only holds
because every call site routes through :mod:`repro.core.dispatch`, where the
precedence contract (explicit argument > ``REPRO_*`` environment > cost
model) lives in exactly one place.  A real bug of this class once let
``REPRO_KERNEL`` beat an explicit ``kernel=`` argument, because a second
call site re-implemented the env lookup with the order inverted.  These
two rules keep the contract single-homed.
"""

from __future__ import annotations

import ast

from .engine import ModuleContext, call_name, dotted_name
from .registry import rule

__all__ = ["DIRECT_KERNELS", "KERNEL_HOME"]

_OPS = ("fps", "ball_query", "knn", "interpolate", "gather")

#: Implementation entry points that bypass the dispatcher when called
#: directly: the per-block loop kernels and the ragged FPS recurrence.
DIRECT_KERNELS = frozenset({f"block_{op}" for op in _OPS} | {"ragged_fps"})

#: Modules allowed to touch kernel implementations: where they are
#: defined (bppo, ragged) and the dispatcher itself.
KERNEL_HOME = (
    "repro.core.dispatch",
    "repro.core.ragged",
    "repro.core.bppo",
)


@rule(
    "REP001",
    "kernel-outside-dispatch",
    "kernel ops must route through dispatch.run_op/run_build, never call "
    "block_*/ragged_fps implementations directly",
)
def check_direct_kernel_calls(ctx: ModuleContext):
    if ctx.in_module(*KERNEL_HOME):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = call_name(node.func)
            if name in DIRECT_KERNELS:
                yield (
                    node.lineno, node.col_offset,
                    f"kernel implementation {name!r} called directly; route "
                    "through repro.core.dispatch.run_op (or run_build) so "
                    "explicit-kernel > REPRO_* > cost-model precedence holds",
                )


#: The one module allowed to read dispatch environment overrides.
_ENV_HOME = ("repro.core.dispatch",)

_ENV_READERS = frozenset(
    {"os.environ.get", "environ.get", "os.getenv", "getenv",
     "os.environ.setdefault", "environ.setdefault",
     "os.environ.pop", "environ.pop"}
)


def _is_repro_env_key(node: ast.AST) -> bool:
    """A ``REPRO_*`` literal, or a ``*_ENV`` constant from dispatch."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith("REPRO_")
    name = dotted_name(node)
    return bool(name) and name.rsplit(".", 1)[-1].endswith("_ENV")


@rule(
    "REP002",
    "env-read-outside-dispatch",
    "REPRO_* environment overrides may be read only via the dispatch "
    "accessors (resolve_kernel/resolve_agg)",
)
def check_env_reads(ctx: ModuleContext):
    if ctx.in_module(*_ENV_HOME):
        return
    message = (
        "reads a REPRO_* override outside repro.core.dispatch; ad-hoc env "
        "lookups re-risk the precedence bug — call "
        "dispatch.resolve_kernel/resolve_agg instead"
    )
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            if dotted_name(node.func) in _ENV_READERS and node.args:
                if _is_repro_env_key(node.args[0]):
                    yield (node.lineno, node.col_offset, message)
        elif isinstance(node, ast.Subscript):
            if dotted_name(node.value) in ("os.environ", "environ"):
                if _is_repro_env_key(node.slice):
                    yield (node.lineno, node.col_offset, message)
