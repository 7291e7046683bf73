"""Labeled point sets and input validation helpers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError


def check_points(points) -> np.ndarray:
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1 or P.shape[1] < 1:
        raise InvariantViolationError(f"points must be a nonempty 2-d array, got shape {P.shape}")
    if not np.isfinite(P).all():
        bad = np.argwhere(~np.isfinite(P))[0]
        raise InvariantViolationError(f"non-finite coordinate at point {bad[0]}, axis {bad[1]}")
    return P


def check_labels(labels, n_points: int) -> np.ndarray:
    L = np.asarray(labels)
    if L.ndim == 1:
        L = L[None, :]
    if L.ndim != 2 or L.shape[0] < 1:
        raise InvariantViolationError(f"labels must be a (k, n) array, got shape {L.shape}")
    if L.shape[1] != n_points:
        raise InvariantViolationError(
            f"label rows have {L.shape[1]} entries for {n_points} points"
        )
    Lf = np.asarray(L, dtype=float)
    if not np.isin(Lf, (-1.0, 1.0)).all():
        bad = np.argwhere(~np.isin(Lf, (-1.0, 1.0)))[0]
        raise InvariantViolationError(
            f"label entry at property {bad[0]}, point {bad[1]} is not -1 or +1"
        )
    return Lf.astype(np.int8)


@dataclass
class LabeledPointSet:
    """n points in R^d with k binary (-1/+1) properties.

    ``labels`` is (k, n); row i partitions the points into the negative and
    positive side of property i.
    """

    points: np.ndarray
    labels: np.ndarray = field(default=None)

    def __post_init__(self):
        self.points = check_points(self.points)
        self.labels = check_labels(self.labels, self.points.shape[0])

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def k(self) -> int:
        return self.labels.shape[0]

    def side(self, prop: int, sign: int) -> np.ndarray:
        """Points with the given label sign for property ``prop``."""
        return self.points[self.labels[prop] == sign]

    def side_indices(self, prop: int, sign: int) -> np.ndarray:
        return np.nonzero(self.labels[prop] == sign)[0]

    def label_tuples(self) -> set[tuple[int, ...]]:
        return {tuple(int(v) for v in self.labels[:, j]) for j in range(self.n)}

    def uses_all_labels(self) -> bool:
        return len(self.label_tuples()) == 2 ** self.k

    def with_points(self, new_points: np.ndarray) -> "LabeledPointSet":
        """Same labels, different coordinates (e.g. after projection)."""
        new_points = np.asarray(new_points, dtype=float)
        if new_points.shape != self.points.shape:
            raise DimensionMismatchError("replacement points must match the original shape")
        return LabeledPointSet(new_points, self.labels.copy())
