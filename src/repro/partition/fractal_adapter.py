"""Adapter exposing :func:`repro.core.fractal.fractal_partition` as a
:class:`~repro.partition.base.Partitioner`, so the paper's method competes
with the baselines through one interface.
"""

from __future__ import annotations

import numpy as np

from ..core.blocks import BlockStructure
from ..core.config import FractalConfig
from ..core.fractal import fractal_partition
from .base import Partitioner

__all__ = ["FractalPartitioner"]


class FractalPartitioner(Partitioner):
    """Fractal shape-aware partitioning under the common interface.

    Args:
        threshold: maximum points per block (``th``).
        config: full :class:`FractalConfig` override (wins over
            ``threshold`` when provided).
    """

    name = "fractal"

    def __init__(self, threshold: int = 256, config: FractalConfig | None = None):
        self.config = config or FractalConfig(threshold=threshold)

    def partition(self, coords: np.ndarray) -> BlockStructure:
        return fractal_partition(coords, self.config).block_structure()
