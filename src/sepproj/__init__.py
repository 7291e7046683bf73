"""sepproj: certified linear-separability testing and separation-preserving
projections that hide one binary property of a labeled point set."""

from .data import LabeledPointSet
from .geometry import (
    Flat,
    OrthoBasis,
    barycentric_coords,
    intersect_flats,
    orthonormalize,
    project_points,
)
from .separability import (
    BCCover,
    Hyperplane,
    KirchbergerWitness,
    SeparationResult,
    bc_separable_bruteforce,
    common_point,
    kirchberger_reduce,
    linear_separability,
    one_infty_separable,
    one_infty_witness,
    point_in_hull,
)

__version__ = "0.1.0"

__all__ = [
    "BCCover",
    "Flat",
    "Hyperplane",
    "KirchbergerWitness",
    "LabeledPointSet",
    "OrthoBasis",
    "SeparationResult",
    "barycentric_coords",
    "bc_separable_bruteforce",
    "common_point",
    "intersect_flats",
    "kirchberger_reduce",
    "linear_separability",
    "one_infty_separable",
    "one_infty_witness",
    "orthonormalize",
    "point_in_hull",
    "project_points",
]
