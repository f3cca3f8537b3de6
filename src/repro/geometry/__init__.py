"""Geometry substrate: point-cloud containers and exact point operations.

Everything in this package is *reference* behaviour — global-search
operations and exact metrics.  The paper's contribution (Fractal + BPPO)
lives in :mod:`repro.core` and is validated against this package.
"""

from .bbox import AABB, aabb_of_points
from .metrics import (
    block_balance_factor,
    chamfer_distance,
    coverage_radius,
    neighbor_recall,
    sampling_distortion,
)
from .ops import (
    ball_query,
    farthest_point_sample,
    gather_features,
    idw_weights,
    interpolate_features,
    interpolation_weights,
    knn_search,
    pairwise_sq_dists,
)
from .pointcloud import PointCloud
from .voxel import voxel_downsample, voxel_downsample_indices

__all__ = [
    "AABB",
    "PointCloud",
    "aabb_of_points",
    "ball_query",
    "block_balance_factor",
    "chamfer_distance",
    "coverage_radius",
    "farthest_point_sample",
    "gather_features",
    "idw_weights",
    "interpolate_features",
    "interpolation_weights",
    "knn_search",
    "neighbor_recall",
    "pairwise_sq_dists",
    "sampling_distortion",
    "voxel_downsample",
    "voxel_downsample_indices",
]
