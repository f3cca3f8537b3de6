"""Named serving models with deterministic parameters.

Serving traffic addresses models by name (``repro serve --model
pointnet2-cls``); the registry maps each name to a small, fully
deterministic backbone instance.  Parameters derive from a fixed seed,
so every worker process and offline reference builds bit-identical
weights — the property the served-vs-offline parity guarantee stands on.

Served forwards (:func:`run_model` here, :func:`repro.infer.run_fused`)
run under :func:`repro.networks.layers.forward_only`: they write nothing
to the model, so :func:`get_model` keeps one instance per name per
process, and any number of threads may run forwards on it at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..networks import PNNClassifier, PNNClassifierMSG, PNNSegmenter
from ..networks.backends import PointOpsBackend, make_backend
from ..networks.layers import Module, forward_only

__all__ = [
    "MODELS",
    "MODEL_NAMES",
    "ModelSpec",
    "get_model",
    "model_spec",
    "run_model",
    "run_offline",
]


@dataclass(frozen=True)
class ModelSpec:
    """One servable model: name → deterministic construction recipe.

    Attributes:
        name: registry key (the ``--model`` flag value).
        task: ``"cls"`` (one logit row per cloud) or ``"seg"`` (one
            logit row per point).
        arch: backbone family — an :data:`repro.networks.models.ARCHS`
            key, or ``"msg"`` for the multi-scale-grouping classifier.
        num_classes: output classes.
        num_points: nominal input size the stage widths derive from
            (clouds of any size still run; stages clamp).
        seed: parameter-init seed — fixed, so instances are identical
            everywhere.
    """

    name: str
    task: str
    arch: str
    num_classes: int = 8
    num_points: int = 256
    seed: int = 0

    def build(self) -> Module:
        """Construct a fresh instance with the spec's deterministic seed."""
        if self.arch == "msg":
            return PNNClassifierMSG(
                self.num_classes, num_points=self.num_points, seed=self.seed
            )
        if self.task == "seg":
            return PNNSegmenter(
                self.num_classes, num_points=self.num_points,
                arch=self.arch, seed=self.seed,
            )
        return PNNClassifier(
            self.num_classes, num_points=self.num_points,
            arch=self.arch, seed=self.seed,
        )


MODELS: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        ModelSpec("pointnet2-cls", task="cls", arch="pointnet2"),
        ModelSpec("pointnext-cls", task="cls", arch="pointnext"),
        ModelSpec("pointvector-cls", task="cls", arch="pointvector"),
        ModelSpec("pointnet2-msg-cls", task="cls", arch="msg"),
        ModelSpec("pointnet2-seg", task="seg", arch="pointnet2"),
    )
}

MODEL_NAMES: tuple[str, ...] = tuple(MODELS)

_INSTANCES: dict[str, Module] = {}


def model_spec(name: str) -> ModelSpec:
    """Registry lookup; raises ``ValueError`` on unknown names."""
    if name not in MODELS:
        raise ValueError(
            f"unknown model {name!r}; expected one of {list(MODELS)}"
        )
    return MODELS[name]


def get_model(name: str) -> Module:
    """This process's instance of ``name`` (built on first use).

    One instance serves every thread: served forwards keep no state on
    the model, and its parameters are only read.  Never train it.
    """
    model = _INSTANCES.get(name)
    if model is None:
        # Two threads racing here build twice; ``setdefault`` keeps one.
        model = _INSTANCES.setdefault(name, model_spec(name).build())
    return model


def run_model(
    model: Module,
    coords: np.ndarray,
    features: np.ndarray | None,
    backend: PointOpsBackend,
    agg: str = "auto",
) -> np.ndarray:
    """One per-cloud forward-only pass under a ``model.forward`` span.

    ``features`` is accepted for signature parity with the engine's
    cloud tuples but ignored: the serving backbones derive features from
    geometry (stem MLP or raw coordinates), matching how they train.
    """
    del features
    with (
        obs.span("model.forward", points=len(coords))
        if obs.enabled()
        else obs.NULL_SPAN
    ), forward_only():
        return model.forward(coords, backend, agg=agg)


def run_offline(
    name: str,
    cloud: object,
    *,
    partitioner: str = "fractal",
    block_size: int = 256,
    kernel: str = "auto",
    agg: str = "auto",
    backend: PointOpsBackend | None = None,
) -> np.ndarray:
    """The offline reference: one cloud, one model, no engine.

    Defaults mirror :class:`repro.runtime.BatchExecutor` construction
    defaults, so ``run_offline(name, cloud)`` is the parity baseline
    for a default-configured serving engine.  Coordinates are consumed
    exactly like the engine consumes them (float64).
    """
    coords = cloud.coords if hasattr(cloud, "coords") else cloud
    coords = np.asarray(coords, dtype=np.float64)
    if backend is None:
        backend = make_backend(
            partitioner, max_points_per_block=block_size, kernel=kernel
        )
    return run_model(get_model(name), coords, None, backend, agg=agg)
