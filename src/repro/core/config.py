"""Configuration for the Fractal partitioner and BPPO."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FractalConfig", "DEFAULT_LARGE_SCALE_THRESHOLD", "DEFAULT_SMALL_SCALE_THRESHOLD"]

# Chosen by the paper's greedy design-space exploration (Fig. 17):
# th = 256 for large-scale (segmentation) inputs, 64 for small-scale
# (classification) inputs.
DEFAULT_LARGE_SCALE_THRESHOLD = 256
DEFAULT_SMALL_SCALE_THRESHOLD = 64


@dataclass(frozen=True)
class FractalConfig:
    """Parameters of Fractal partitioning and block-parallel operations.

    Attributes:
        threshold: maximum points per block (``th`` in Alg. 1).
        split_rule: "cycle" cycles dimensions x→y→z per level (paper
            default, avoids coplanar pathologies §VI-D); "longest" splits
            the longest extent instead (ablation).
        start_dim: first dimension for the cycle rule.
        parent_search: expand a deep leaf's neighbour-search space to its
            immediate parent (paper default True; False is the
            leaf-only ablation).
        min_search_candidates: block-wise KNN/interpolation widens its
            search space up the tree until at least this many candidates
            are available (guards tiny blocks; the widening events are
            counted in traces).
    """

    threshold: int = DEFAULT_LARGE_SCALE_THRESHOLD
    split_rule: str = "cycle"
    start_dim: int = 0
    parent_search: bool = True
    min_search_candidates: int = 3

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        if self.split_rule not in ("cycle", "longest"):
            raise ValueError(f"split_rule must be 'cycle' or 'longest', got {self.split_rule!r}")
        if not 0 <= self.start_dim < 3:
            raise ValueError(f"start_dim must be 0..2, got {self.start_dim}")
        if self.min_search_candidates < 1:
            raise ValueError("min_search_candidates must be >= 1")
