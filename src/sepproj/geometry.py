"""Dense affine/linear geometry primitives: orthonormal systems, projections,
flats and their intersections, barycentric coordinates.

Everything operates on float64 numpy arrays; points are row vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GEOM_TOL, RANK_TOL
from .errors import (
    AllDegenerateError,
    DegenerateSimplexError,
    DimensionMismatchError,
)


def as_points(P) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    if P.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d point array, got shape {P.shape}")
    return P


@dataclass(frozen=True)
class OrthoBasis:
    """Rows are mutually orthogonal unit vectors in R^d (possibly none)."""

    vectors: np.ndarray  # (r, d)

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @staticmethod
    def empty(dim: int) -> "OrthoBasis":
        return OrthoBasis(np.zeros((0, dim)))


@dataclass(frozen=True)
class Flat:
    """Affine flat: ``base`` plus the span of ``directions``."""

    base: np.ndarray
    directions: OrthoBasis

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        if self.base.shape[0] != self.directions.dim:
            raise DimensionMismatchError("flat base and directions disagree on dimension")

    @property
    def dim(self) -> int:
        return self.directions.count

    @property
    def ambient_dim(self) -> int:
        return self.base.shape[0]


def orthonormalize(vs) -> OrthoBasis:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Linearly dependent (or zero) inputs are dropped.  Raises AllDegenerateError
    when nothing survives.
    """
    V = as_points(vs)
    if V.shape[0] == 0:
        raise AllDegenerateError("no input vectors")
    out: list[np.ndarray] = []
    scale = max(1.0, float(np.abs(V).max()))
    for row in V:
        v = row.astype(float).copy()
        for u in out:
            v -= (u @ v) * u
        for u in out:  # second pass for numerical orthogonality
            v -= (u @ v) * u
        n = np.linalg.norm(v)
        if n > RANK_TOL * scale:
            out.append(v / n)
    if not out:
        raise AllDegenerateError("all input vectors are numerically dependent or zero")
    return OrthoBasis(np.array(out))


def complement_basis(W: OrthoBasis) -> OrthoBasis:
    """Orthonormal basis of the orthogonal complement of span(W) in R^d."""
    d = W.dim
    if W.count == 0:
        return OrthoBasis(np.eye(d))
    M = np.vstack([W.vectors, np.eye(d)])
    Q = orthonormalize(M).vectors
    return OrthoBasis(Q[W.count:])


def project_points(P, W: OrthoBasis) -> np.ndarray:
    """Remove from every point its components along the basis vectors.

    The result stays embedded in the ambient space, restricted to the subspace
    orthogonal to the basis.
    """
    P = as_points(P)
    if P.shape[1] != W.dim:
        raise DimensionMismatchError(
            f"points have dimension {P.shape[1]}, basis {W.dim}"
        )
    if W.count == 0:
        return P.copy()
    V = W.vectors
    return P - (P @ V.T) @ V


def flat_coordinates(P, W: OrthoBasis) -> np.ndarray:
    """Coordinates of the points after projecting along W, inside the image
    flat: against an orthonormal basis of the orthogonal complement of W."""
    return project_points(P, W) @ complement_basis(W).vectors.T


def intersect_flats(F1: Flat, F2: Flat):
    """Intersection of two flats: a point (ndarray), a Flat, or None if empty.

    Solves base1 + D1 s = base2 + D2 t; rank decisions use singular values
    against the rank tolerance.
    """
    if F1.ambient_dim != F2.ambient_dim:
        raise DimensionMismatchError("flats live in different ambient spaces")
    d = F1.ambient_dim
    D1 = F1.directions.vectors
    D2 = F2.directions.vectors
    m1, m2 = D1.shape[0], D2.shape[0]
    M = np.zeros((d, m1 + m2))
    if m1:
        M[:, :m1] = D1.T
    if m2:
        M[:, m1:] = -D2.T
    rhs = F2.base - F1.base
    scale = max(1.0, float(np.linalg.norm(rhs)), 1.0)
    if m1 + m2 == 0:
        return F1.base.copy() if np.linalg.norm(rhs) <= GEOM_TOL * scale else None
    U, s, Vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > RANK_TOL * max(1.0, s[0] if s.size else 1.0)))
    # consistency: rhs must lie in the column space
    resid = rhs - U[:, :rank] @ (U[:, :rank].T @ rhs)
    if np.linalg.norm(resid) > GEOM_TOL * scale:
        return None
    sol = Vt[:rank].T @ ((U[:, :rank].T @ rhs) / s[:rank])
    x = F1.base + (D1.T @ sol[:m1] if m1 else 0.0)
    null_dim = (m1 + m2) - rank
    if null_dim == 0:
        return x
    N = Vt[rank:].T  # (m1+m2, null_dim)
    dirs = (D1.T @ N[:m1]).T if m1 else np.zeros((null_dim, d))
    try:
        B = orthonormalize(dirs)
    except AllDegenerateError:
        return x  # null space moves only the (s, t) parametrization
    return Flat(x, B)


def barycentric_coords(x, S) -> np.ndarray:
    """Coefficients c (summing to 1) with sum_i c_i S_i = x.

    ``S`` holds m affinely independent points spanning a flat that contains x;
    the classic case is m = d+1 points in R^d.
    """
    S = as_points(S)
    x = np.asarray(x, dtype=float)
    m, d = S.shape
    if x.shape[0] != d:
        raise DimensionMismatchError("point and simplex dimension differ")
    A = np.vstack([S.T, np.ones((1, m))])
    rhs = np.concatenate([x, [1.0]])
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    scale = max(1.0, float(np.abs(S).max()))
    if s[-1] <= RANK_TOL * scale:
        raise DegenerateSimplexError("reference points are affinely dependent")
    c = Vt.T @ ((U.T @ rhs) / s)
    resid = np.linalg.norm(A @ c - rhs)
    if resid > GEOM_TOL * scale:
        raise DegenerateSimplexError(
            f"point lies off the simplex flat (residual {resid:.3e})"
        )
    return c


def affine_rank(P) -> int:
    """Dimension of the affine hull of the rows of P."""
    P = as_points(P)
    if P.shape[0] <= 1:
        return 0
    D = P[1:] - P[0]
    s = np.linalg.svd(D, compute_uv=False)
    scale = max(1.0, float(s[0]) if s.size else 1.0)
    return int(np.sum(s > RANK_TOL * scale))


def subspace_intersection(B1: OrthoBasis, B2: OrthoBasis) -> OrthoBasis:
    """Orthonormal basis of span(B1) ∩ span(B2)."""
    if B1.dim != B2.dim:
        raise DimensionMismatchError("bases live in different ambient spaces")
    if B1.count == 0 or B2.count == 0:
        return OrthoBasis.empty(B1.dim)
    # x = B1' y ; require x in span(B2): (I - B2'B2) B1' y = 0
    M = B1.vectors.T - B2.vectors.T @ (B2.vectors @ B1.vectors.T)
    U, s, Vt = np.linalg.svd(M, full_matrices=True)
    null = [Vt[i] for i in range(Vt.shape[0]) if i >= len(s) or s[i] <= RANK_TOL]
    if not null:
        return OrthoBasis.empty(B1.dim)
    X = np.array(null) @ B1.vectors
    try:
        return orthonormalize(X)
    except AllDegenerateError:
        return OrthoBasis.empty(B1.dim)
