"""Directional overlap of the hidden property and its maximization over
projection directions.

Two overlap scores for a labeled set along a direction v:

* interval: length of the intersection of the two sides' projection ranges,
  ``|[min,max](v.P-) ∩ [min,max](v.P+)|``;
* svm: the soft-margin objective ``lam*|v|^2 + mean(max(0, 1 - y (v.p - b)))``.

The overlap of the hidden property after projecting along w equals the
minimum of the score over directions orthogonal to w (the score depends on
points only through their dot products with v, so re-projecting the data is
unnecessary).  The outer problem maximizes that overlap over unit vectors w,
optionally constrained to a subspace (fixed separating hyperplanes survive
exactly when w is orthogonal to their normals) and to a feasible region such
as "the kept properties remain strictly separable after projection".
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .config import RANK_TOL
from .data import LabeledPointSet
from .errors import BadParamsError, EmptySubspaceError, NotSeparableInputError
from .geometry import OrthoBasis, complement_basis, orthonormalize
from .separability import linear_separability

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OverlapSpec:
    """Overlap score selection.  Neither kind's minimum over directions is
    sampled, so there are no accuracy settings."""

    kind: str = "svm"               # "interval" or "svm"
    lam: float = 1.0                # svm regularization weight, > 0

    def __post_init__(self):
        if self.kind not in ("interval", "svm"):
            raise BadParamsError(f"unknown overlap kind {self.kind!r}")
        if self.kind == "svm" and not self.lam > 0:
            raise BadParamsError("svm overlap requires lam > 0")


def g_interval(ps: LabeledPointSet, v, hidden: int = 0) -> float:
    """Length of the overlap of the two sides' ranges along v (0 if disjoint)."""
    v = np.asarray(v, dtype=float)
    sn = ps.side(hidden, -1) @ v
    sp = ps.side(hidden, +1) @ v
    lo = max(sn.min(), sp.min())
    hi = min(sn.max(), sp.max())
    return float(max(0.0, hi - lo))


def g_svm(ps: LabeledPointSet, v, b: float, lam: float, hidden: int = 0) -> float:
    """Soft-margin objective at (v, b): lam*|v|^2 + mean hinge loss."""
    v = np.asarray(v, dtype=float)
    y = ps.labels[hidden].astype(float)
    margins = 1.0 - y * (ps.points @ v - b)
    return float(lam * v @ v + np.maximum(0.0, margins).mean())


def _with_normals(w, keep_normals) -> OrthoBasis:
    """Orthonormal basis of span(w, keep normals)."""
    rows = [w[None, :]]
    if keep_normals is not None and len(keep_normals):
        rows.append(np.asarray(keep_normals, dtype=float))
    return orthonormalize(np.vstack(rows))


def _fix_equality(alpha, y, C):
    """Clip a warm start to the box and restore y.alpha = 0 by shrinking the
    heavier side."""
    alpha = np.clip(alpha, 0.0, C)
    r = float(alpha @ y)
    if abs(r) > 1e-15:
        pos = y > 0
        mass = alpha[pos].sum() if r > 0 else alpha[~pos].sum()
        if mass > abs(r):
            alpha[pos if r > 0 else ~pos] *= (mass - abs(r)) / mass
        else:
            alpha[:] = 0.0
    return alpha


def _solve_svm_gram(K, y, lam, alpha0=None):
    """Exact dual solve (SMO to tiny KKT violation + equality-system polish),
    entirely in Gram-matrix space.  Returns (alpha, u_vals, b, value) where
    u_vals[i] = v . x_i for the primal minimizer v."""
    n = K.shape[0]
    C = 1.0 / n
    if alpha0 is not None and alpha0.shape[0] == n:
        alpha = _fix_equality(alpha0.copy(), y, C)
    else:
        alpha = np.zeros(n)
    _kernels.smo_box_equality(K, y, C, lam, alpha, INNER_TOL, INNER_MAX_ITER)
    alpha = _kkt_polish(K, y, lam, alpha, C)
    coef = alpha * y
    u_vals = K @ coef / (2.0 * lam)
    b = _offset_from_dual(y, alpha, u_vals, C)
    margins = 1.0 - y * (u_vals - b)
    vv = float(coef @ u_vals) / (2.0 * lam)  # = |v|^2
    value = float(lam * vv + np.maximum(0.0, margins).mean())
    return alpha, u_vals, b, value


def _kkt_polish(K, y, lam, alpha, C):
    """Solve the stationarity system exactly on the identified free set."""
    tol = 1e-9 * C
    free = (alpha > tol) & (alpha < C - tol)
    if not free.any():
        return alpha
    at_c = alpha >= C - tol
    F = np.nonzero(free)[0]
    m = len(F)
    A = np.zeros((m + 1, m + 1))
    A[:m, :m] = K[np.ix_(F, F)] * y[F][None, :] / (2.0 * lam)
    A[:m, m] = 1.0
    A[m, :m] = y[F]
    rhs = np.zeros(m + 1)
    rhs[:m] = y[F]
    if at_c.any():
        rhs[:m] -= (K[np.ix_(F, np.nonzero(at_c)[0])] @ (y[at_c] * C)) / (2.0 * lam)
        rhs[m] = -float(y[at_c].sum()) * C
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return alpha
    aF = sol[:m]
    if (aF < -1e-12).any() or (aF > C + 1e-12).any():
        return alpha
    out = alpha.copy()
    out[F] = np.clip(aF, 0.0, C)
    return out


def _offset_from_dual(y, alpha, u_vals, C):
    tol = 1e-9 * C
    t = y - u_vals
    free = (alpha > tol) & (alpha < C - tol)
    if free.any():
        return -float(t[free].mean())
    up = ((y > 0) & (alpha < C - tol)) | ((y < 0) & (alpha > tol))
    dn = ((y > 0) & (alpha > tol)) | ((y < 0) & (alpha < C - tol))
    lo = t[up].max() if up.any() else None
    hi = t[dn].min() if dn.any() else None
    if lo is None and hi is None:
        return 0.0
    if lo is None:
        return -float(hi)
    if hi is None:
        return -float(lo)
    return -0.5 * float(lo + hi)


def _min_support(A, B):
    """(u, h, k): a unit u minimizing h = max over a in A, b in B of u.(a - b),
    the support function of A - B, over the unit sphere, and the vertices k
    of the facet that attains it, as indices into the rows of A - B (row
    i len(B) + j is A[i] - B[j]).  That minimum is the offset of the nearest
    facet of conv(A - B).  A flat hull (or one of too few points) gives its
    normal, h = 0 and no vertices: the normal is orthogonal to every
    difference of two points of A or of B, so the interval score is 0 there."""
    from scipy.spatial import ConvexHull, QhullError
    S = (A[:, None, :] - B[None, :, :]).reshape(-1, A.shape[1])
    try:
        hull = ConvexHull(S)
    except QhullError:
        return np.linalg.svd(S - S.mean(axis=0))[2][-1], 0.0, None
    eq = hull.equations
    best = int(np.argmax(eq[:, -1]))
    return eq[best, :-1], -float(eq[best, -1]), hull.simplices[best]


def _interval_minimum(Xn, Xp):
    """Minimize the interval score over unit u in the reduced space, given
    the two sides' reduced coordinates.  Returns (u, value, c), the value
    taken at u, and c, weights on the rows of [Xn; Xp] (None at a zero
    value): the attaining combination of differences s = c . [Xn; Xp], with
    s = value u up to rounding.  The weights are linear in the points, so
    they give the same combination of the points in any coordinates.

    Along u the score is max(0, .) of the smallest of the support functions
    of N - N, N - P, P - N and P - P, and P - N's is N - P's at -u, so the
    minimum is the lowest nearest-facet offset of three hulls.  When N - P's
    is <= 0 the sides are weakly separable and the score is 0.  In one
    dimension the sphere is {+-1}, where the score is even, and s is the
    difference of the attaining pair: the largest point of the side with the
    smaller maximum less the smallest point of the side with the larger
    minimum.  Otherwise s is the affine combination of the nearest facet's
    vertices that is its foot point value u."""
    nn = Xn.shape[0]
    one_dim = Xn.shape[1] == 1
    if one_dim:
        u, h = np.array([1.0]), np.inf  # no hull: the value alone decides
    else:
        u, h, k = _min_support(Xn, Xp)
        pair = (Xn, Xp, 0, nn)  # the hull's two sides and their row offsets
        if h > 0.0:
            for A, off in ((Xn, 0), (Xp, nn)):
                cand = _min_support(A, A)
                if cand[1] < h:
                    (u, h, k), pair = cand, (A, A, off, off)
    t = np.concatenate([Xn @ u, Xp @ u])  # every point's position along u
    ends = (int(np.argmax(t[:nn])), nn + int(np.argmax(t[nn:])))
    hi = min(ends, key=t.__getitem__)  # the point that ends the overlap above
    ends = (int(np.argmin(t[:nn])), nn + int(np.argmin(t[nn:])))
    lo = max(ends, key=t.__getitem__)  # and the one that ends it below
    value = max(0.0, t[hi] - t[lo])
    # a hull offset of 0 or below (a flat hull, or weakly separable sides)
    # means a zero score, whatever rounding leaves in the value
    if not (value > 0.0 and h > 0.0):
        return u, value, None
    c = np.zeros(len(t))
    if one_dim:
        c[hi] += 1.0
        c[lo] -= 1.0
        return u, value, c
    A, B, oa, ob = pair
    i, j = np.divmod(k, B.shape[0])
    V = A[i] - B[j]
    # the facet's vertices span a plane off the origin, so the system is
    # consistent; least squares also covers a degenerate triangulated piece
    lam = np.linalg.lstsq(np.vstack([V.T, np.ones(len(k))]),
                          np.append(h * u, 1.0), rcond=None)[0]
    np.add.at(c, oa + i, lam)
    np.add.at(c, ob + j, -lam)
    return u, value, c


def min_overlap(ps: LabeledPointSet, spec: OverlapSpec,
                constraints: OrthoBasis | None = None, hidden: int = 0):
    """Minimize the overlap score over directions orthogonal to the constraint
    vectors.  Returns (v, b, value); b is 0.0 for the interval kind.

    The svm kind is convex and solved essentially exactly via its dual.  The
    interval kind is nonconvex in the direction; its minimum is exact, the
    lowest nearest-facet offset of the hulls of the side differences
    N - P, N - N and P - P, and is attained at the returned direction.  A
    reduced space of one dimension needs no hull.  Otherwise the hulls come
    from qhull, and ``scipy.spatial`` is imported at the first such
    evaluation.
    """
    if constraints is None:
        constraints = OrthoBasis.empty(ps.d)
    Z = complement_basis(constraints)
    if Z.count == 0:
        raise EmptySubspaceError("constraints leave no direction for the score")
    X = ps.points @ Z.vectors.T
    y = ps.labels[hidden].astype(float)
    if spec.kind == "svm":
        K = np.ascontiguousarray(X @ X.T)
        alpha, u_vals, b, value = _solve_svm_gram(K, y, spec.lam)
        u = X.T @ (alpha * y) / (2.0 * spec.lam)
        return Z.vectors.T @ u, float(b), value, alpha
    u, value, _ = _interval_minimum(X[y < 0], X[y > 0])
    return Z.vectors.T @ u, 0.0, float(value), None


def f_value(ps: LabeledPointSet, w, spec: OverlapSpec,
            keep_normals: np.ndarray | None = None, hidden: int = 0):
    """Overlap of the hidden property after projecting along unit w: the score
    minimum over directions orthogonal to w (and to any fixed keep normals).
    The data itself is not re-projected; the constraint substitutes for it.
    The interval kind is the climb engine's own evaluation, so a climb's
    values are ``f_value``'s bit for bit."""
    w = np.asarray(w, dtype=float)
    if spec.kind == "interval":
        v, value, _ = _IntervalClimbEngine(ps, spec, keep_normals, hidden).minimum(w)
        return value, (v, 0.0, None)
    v, b, value, alpha = min_overlap(ps, spec, _with_normals(w, keep_normals),
                                     hidden)
    return value, (v, b, alpha)


class _SvmClimbEngine:
    """Per-instance cache making one svm overlap evaluation O(n^2 + n d):
    the reduced Gram matrix for any direction w is a rank-one downdate of the
    keep-normal-reduced Gram matrix.

    ``ceiling`` bounds every value from above: v = 0 is admissible for every
    w, and at v = 0 the best offset b = +-1 leaves a mean hinge loss of
    2 min(n+, n-) / n, where n+ and n- are the hidden property's side sizes.
    A direction reaching it is a global maximum."""

    def __init__(self, ps: LabeledPointSet, spec: OverlapSpec, keep_normals,
                 hidden: int):
        self.lam = spec.lam
        self.y = ps.labels[hidden].astype(float)
        n_pos = int((self.y > 0).sum())
        self.ceiling = 2.0 * min(n_pos, ps.n - n_pos) / ps.n
        self.evaluations = 0
        self.P = ps.points
        if keep_normals is not None and len(keep_normals):
            self.N = orthonormalize(np.asarray(keep_normals, dtype=float)).vectors
            self.PN = self.P - (self.P @ self.N.T) @ self.N
        else:
            self.N = None
            self.PN = self.P
        self.KN = np.ascontiguousarray(self.PN @ self.PN.T)

    def value(self, w, warm=None):
        z = w if self.N is None else w - self.N.T @ (self.N @ w)
        nz = np.linalg.norm(z)
        t = (self.PN @ w) / nz
        K = self.KN - np.outer(t, t)
        alpha, _, _, value = _solve_svm_gram(K, self.y, self.lam, warm)
        self.evaluations += 1
        return value, alpha

    def gradient(self, w, alpha):
        """Exact gradient from the inner dual solution: with
        s = sum_i alpha_i y_i p_i the value depends on w only through
        -(w.s)^2/(4 lam).  Its part along w and the keep normals is left in;
        the climb projects it onto the tangent space."""
        s = self.P.T @ (alpha * self.y)
        return (w @ s) / (2.0 * self.lam) * s


def _reflector_complement(a, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the complement of a in R^k: the rows after
    the first of the Householder reflector that maps a onto the first axis.
    All of R^k when |a| <= tol."""
    k = a.shape[0]
    na = float(np.linalg.norm(a))
    if na <= tol:
        return np.eye(k)
    u = a / na
    a0 = abs(u[0])
    u[0] += 1.0 if u[0] >= 0.0 else -1.0  # no cancellation: |u[0]| >= 1
    return np.eye(k)[1:] - np.outer(u[1:], u) / (1.0 + a0)


class _IntervalClimbEngine:
    """Per-instance cache for the interval score.  The keep normals are
    orthonormalized once, and the points are given coordinates in their
    complement C, split by side.  An evaluation at w then needs only an
    orthonormal basis H of the complement of C w inside that space, from one
    Householder reflector; the score is minimized over the rows of H C.
    The score has no upper bound independent of w, so ``ceiling`` is None.

    An evaluation also returns, as its warm state, the attaining combination
    of differences s, in the coordinates C, and the value h.  While the same
    pair or facet attains the minimum, h(w) = |s - (w^.s) w^| with w^ = C w,
    the length of s's part orthogonal to w^, so the gradient is closed-form
    (Danskin's envelope theorem) and costs no further evaluation."""

    ceiling = None

    def __init__(self, ps: LabeledPointSet, spec: OverlapSpec, keep_normals,
                 hidden: int):
        self.evaluations = 0
        if keep_normals is not None and len(keep_normals):
            N = orthonormalize(np.asarray(keep_normals, dtype=float))
            self.C = complement_basis(N).vectors
        else:
            self.C = np.eye(ps.d)
        PC = ps.points @ self.C.T
        y = ps.labels[hidden]
        self.Xn, self.Xp = PC[y < 0], PC[y > 0]

    def minimum(self, w):
        """(v, value, s): the minimizing unit direction in R^d, the score and
        the attaining combination of differences in the coordinates C (None
        at a zero score)."""
        # orthonormalize's drop rule: a w inside span(N) adds no constraint
        tol = RANK_TOL * max(1.0, float(np.abs(w).max()))
        H = _reflector_complement(self.C @ w, tol)
        if H.shape[0] == 0:
            raise EmptySubspaceError("constraints leave no direction for the score")
        u, value, c = _interval_minimum(self.Xn @ H.T, self.Xp @ H.T)
        nn = self.Xn.shape[0]
        s = None if c is None else c[:nn] @ self.Xn + c[nn:] @ self.Xp
        return (u @ H) @ self.C, float(value), s

    def value(self, w, warm=None):
        self.evaluations += 1
        _, value, s = self.minimum(w)
        return value, (s, value)

    def gradient(self, w, warm):
        """-(w^.s)/h C^T s from the warm state (s, h); 0 at a zero score."""
        s, h = warm
        if s is None:
            return np.zeros_like(w)
        return (-float((self.C @ w) @ s) / h) * (self.C.T @ s)


# ---------------------------------------------------------------------------
# outer maximization


@dataclass
class OptResult:
    best: np.ndarray
    value: float
    starts: int
    trace: list[float]
    finals: list[tuple[np.ndarray, float]]


class SlackOracle:
    """Signed feasibility slack over projection directions.

    ``slack(w) >= 0`` means feasible; the magnitude is meaningful, so an
    exact-penalty climb can crawl along the boundary instead of stalling
    against a binary accept/reject test.

    An oracle whose slack is, near w, the linear function a . w of a unit
    vector a minus a constant may pass ``normal_fn`` returning that a: the
    normal of the facet that sets the slack at w, pointing to larger slack.
    ``active_normal(w)`` returns it, or None for an oracle without one.  A
    climb that the penalty blocks steps along that facet; without it, the
    climb probes its compass."""

    def __init__(self, slack_fn: Callable, normal_fn: Callable | None = None):
        self._slack = slack_fn
        self._normal = normal_fn

    def slack(self, w) -> float:
        return float(self._slack(np.asarray(w, dtype=float)))

    def active_normal(self, w) -> np.ndarray | None:
        if self._normal is None:
            return None
        return self._normal(np.asarray(w, dtype=float))

    def __call__(self, w) -> bool:
        return self.slack(w) >= 0.0


KEEP_FLOOR = 1e-7         # cone separation (a sine, so unitless) a kept
                          # property must keep after projection


def _cone_normals(P, Q, c) -> np.ndarray:
    """Unit outward facet normals n_j of cone(D), D = conv(Q) - conv(P): the
    cone is {x : n_j . x <= 0 for every j} (up to sign, see below).  c is a
    unit strict separator, c . (q - p) > 0 for every pair.

    The generators q - p are scaled onto the plane {x : c . x = 1}, given
    coordinates y in an orthonormal basis B of its complement, and the
    cross-section's facets a . y + b <= 0 lift to the cone normals
    B^T a + b c.  A cross-section spanning fewer than d - 1 dimensions is
    taken inside its affine hull, and each complement normal e of that hull
    adds the two facets +-(e . (y - y0)) <= 0.  One-dimensional cross-sections
    need no hull: their facets are the interval's two ends.  A zero-dimensional
    one (all generators parallel) leaves the line through the cone's ray,
    which is the same set as the ray for the +-w test that uses it."""
    G = (Q[None, :, :] - P[:, None, :]).reshape(-1, P.shape[1])
    B = _reflector_complement(c, 0.0)
    Y = (G @ B.T) / (G @ c)[:, None]
    y0 = Y.mean(axis=0)
    # R of a QR factorization has the singular values and right singular
    # vectors of Y - y0, without the |P| |Q| square left factor
    _, sv, Vt = np.linalg.svd(np.linalg.qr(Y - y0, mode="r"))
    r = int((sv > RANK_TOL * max(1.0, float(np.abs(Y).max(initial=0.0)))).sum())
    Z = (Y - y0) @ Vt[:r].T
    if r >= 2:
        from scipy.spatial import ConvexHull
        eq = ConvexHull(Z).equations
        A, b = eq[:, :-1], eq[:, -1]
    elif r == 1:
        A, b = np.array([[1.0], [-1.0]]), np.array([-Z.max(), Z.min()])
    else:
        A, b = np.zeros((0, 0)), np.zeros(0)
    A = np.vstack([A @ Vt[:r], Vt[r:], -Vt[r:]])
    b = np.concatenate([b, np.zeros(2 * (Vt.shape[0] - r))]) - A @ y0
    N = A @ B + b[:, None] * c[None, :]
    return N / np.linalg.norm(N, axis=1, keepdims=True)


def _cone_separation(N, w):
    """(min(max_j n_j . w, max_j -n_j . w), n): the separation is positive
    exactly when neither w nor -w lies in the cone with facet normals N.
    Inside it, it is minus the sine of the angle to the nearest facet plane.
    n is the facet normal that sets it, n . w equal to it: n_argmax when
    the max is the smaller term, else -n_argmin.  With no facets (d = 1)
    every direction is inside, at the extreme value -1, and n is None."""
    t = N @ w
    if t.size == 0:
        return -1.0, None
    i, j = int(np.argmax(t)), int(np.argmin(t))
    if t[i] <= -t[j]:
        return float(t[i]), N[i]
    return float(-t[j]), -N[j]


def separability_feasibility(ps: LabeledPointSet, keep: tuple[int, ...],
                             require_hidden_overlap: bool = False,
                             hidden: int = 0) -> SlackOracle:
    """Feasibility over unit directions w: after projecting along w, every
    property in ``keep`` stays strictly separable with slack at least
    ``KEEP_FLOOR`` (and, optionally, the hidden property does not stay
    strictly separable).

    Projecting along w makes property i lose strict separability exactly
    when w or -w lies in cone(D_i), D_i = conv(Q_i) - conv(P_i) (the
    projection's image contains 0 exactly when the line through w meets
    D_i).  So the slack of a kept property is ``_cone_separation`` of its
    cone's facet normals at w, minus ``KEEP_FLOOR``: a unitless, angular
    quantity whose sign is the exact verdict, and which inside the cone still
    grows towards the boundary, so a penalized climb sees a gradient in both
    regimes.  The hidden property contributes minus its separation.  Each
    call is one matrix-vector product per property.

    Each property's unprojected separability and separator come from one
    ``linear_separability`` call here.  A kept property that is not strictly
    separable raises ``NotSeparableInputError``: no projection separates
    intersecting hulls.  A hidden property that is not strictly separable
    overlaps after every projection, so it adds no constraint.  The facets
    come from qhull at the first call, when ``scipy.spatial`` is imported.

    On a line (d = 1) every projection leaves a single point, so no kept
    property can stay separable: a nonempty ``keep`` there raises
    ``EmptySubspaceError`` before any separability check.
    """
    if keep and ps.d == 1:
        raise EmptySubspaceError(
            "projecting a line leaves a point: no kept property stays separable")

    def separator(i):
        P, Q = ps.side(i, -1), ps.side(i, +1)
        res = linear_separability(P, Q)
        return P, Q, (res.hyperplane.normal if res.separable else None)

    cones = []  # (P, Q, separator, sign of the separation in the slack)
    for i in keep:
        P, Q, c = separator(i)
        if c is None:
            raise NotSeparableInputError(
                f"kept property {i} is not strictly separable before projection")
        cones.append((P, Q, c, 1.0))
    if require_hidden_overlap:
        P, Q, c = separator(hidden)
        if c is not None:
            cones.append((P, Q, c, -1.0))
    normals = []  # filled at the first call

    def active(w: np.ndarray):
        """(slack, the unit normal of the facet that sets it, signed so the
        slack grows along it; None where nothing constrains)."""
        if not normals and cones:
            normals.extend((_cone_normals(P, Q, c), sign) for P, Q, c, sign in cones)
        s, a = np.inf, None
        for N, sign in normals:
            sep, n = _cone_separation(N, w)
            term = sep - KEEP_FLOOR if sign > 0 else -sep
            if term < s:
                s, a = term, (n if sign > 0 or n is None else -n)
        return s, a

    return SlackOracle(lambda w: active(w)[0], lambda w: active(w)[1])


def _tangent_basis(w: np.ndarray, keep_normals) -> np.ndarray:
    return complement_basis(_with_normals(w, keep_normals)).vectors


def _tangent(v, w, K):
    """v's part orthogonal to the unit w and to the orthonormal rows of K,
    w orthogonal to them: its projection onto the climb's tangent space."""
    return v - K.T @ (K @ v) - (w @ v) * w


PENALTY_WEIGHT = 1.0
STEP0 = 0.25              # first and largest climb step, along the tangent
STEP_MIN = 1e-8           # a climb stops once its step falls below this
MAX_ITER = 2000           # climb iterations per start
ACCEPT_MARGIN = 1e-15     # a step must raise the value by more than this
INNER_TOL = 1e-12         # KKT violation target for the svm dual
INNER_MAX_ITER = 200000   # SMO iteration budget per svm evaluation
MAX_START_TRIES = 200000  # sampled start directions before giving up


def _compass(E: np.ndarray) -> list[np.ndarray]:
    """Probe directions in the tangent basis E: eight points of the circle
    spanned by its first two vectors, then +-each further vector."""
    if E.shape[0] < 2:
        return [E[0], -E[0]]
    dirs = [np.cos(np.pi * a / 4.0) * E[0] + np.sin(np.pi * a / 4.0) * E[1]
            for a in range(8)]
    for extra in E[2:]:
        dirs.extend([extra, -extra])
    return dirs


def _boundary_candidate(w, gt, a, K, step):
    """One projected-gradient step (Rosen 1960) along the facet
    {x : a . x = KEEP_FLOOR} of the unit normal a, or None when the facet
    leaves no such step.  The climb moves on the sphere orthogonal to the
    orthonormal rows of K.

    The tangent gradient gt loses only its part along -a_t, where a_t is a's
    tangent part: the outward part, along which the slack falls.  The step
    of length ``step`` is then retracted, in closed form, to the nearest
    point of the sphere orthogonal to K at which a . x = KEEP_FLOOR."""
    at = _tangent(a, w, K)
    nt = np.linalg.norm(at)
    if nt == 0.0:
        return None
    av = (a @ w) * w + at  # a's part orthogonal to K
    nv = np.linalg.norm(av)
    h = KEEP_FLOOR / nv  # the facet's level along the unit av / nv
    d = gt - min(0.0, float(gt @ at) / nt) * (at / nt)
    nd = np.linalg.norm(d)
    if h >= 1.0 or nd == 0.0:
        return None
    x = w + step * (d / nd)
    xp = x - (x @ av) / (nv * nv) * av
    nxp = np.linalg.norm(xp)
    if nxp == 0.0:
        return None
    return h * (av / nv) + np.sqrt(1.0 - h * h) * (xp / nxp)


def _climb(ps, spec, w0, keep_normals, oracle: SlackOracle | None, hidden):
    """Ascent with retraction to the unit sphere, from step ``STEP0`` until
    ``MAX_ITER`` iterations, a step below ``STEP_MIN``, or, for the svm
    score, a best feasible value within ``ACCEPT_MARGIN`` of the engine's
    ceiling 2 min(n+, n-) / n.  No value exceeds that ceiling, so past it a
    step could be accepted only on inner-solver noise, and a best feasible
    value within ``ACCEPT_MARGIN`` of it is returned as the ceiling itself.

    Each iteration takes the engine's gradient from the warm state of the
    last accepted evaluation, with no evaluation of its own, and projects it
    onto the tangent space: orthogonal to w and to the keep normals, which
    are orthonormalized once per climb.  The gradient step is tried first
    (greedy).  The oracle's slack turns into an exact penalty (value +
    weight * min(0, slack)), and a step is accepted only when it raises the
    penalized value, so accepted steps never decrease it.  When the gradient
    step would raise the value but the penalty refuses it, and the oracle
    names the facet that sets its slack at w (``SlackOracle.active_normal``),
    the one candidate tried is a step along that facet
    (``_boundary_candidate``): the gradient without its outward part,
    retracted onto the sphere at the facet's level a . x = KEEP_FLOOR, where
    a kept facet's slack is 0.  Otherwise, when the gradient step is
    rejected, the compass, ``_compass`` of a tangent basis
    (``_tangent_basis``, built only then), is probed in order of decreasing
    value.  A one-dimensional tangent space with a nonzero gradient has no
    compass: its other direction is against the gradient of the piece that
    attains the score, which near w can only lower it (Danskin's theorem),
    so a rejected gradient step only halves the step.  With an oracle the
    result is the best feasible point visited, if any.  The DEBUG stop line
    counts the evaluations, the compass probes and the boundary steps tried
    and accepted."""
    engine_cls = _SvmClimbEngine if spec.kind == "svm" else _IntervalClimbEngine
    engine = engine_cls(ps, spec, keep_normals, hidden)
    if keep_normals is not None and len(keep_normals):
        K = orthonormalize(np.asarray(keep_normals, dtype=float)).vectors
    else:
        K = np.zeros((0, ps.d))
    tangent_dim = ps.d - 1 - K.shape[0]

    def penalized(wv, fv):
        if oracle is None:
            return fv, 0.0
        s = oracle.slack(wv)
        return fv + PENALTY_WEIGHT * min(0.0, s), s

    w = np.asarray(w0, dtype=float)
    w = w / np.linalg.norm(w)
    fval, warm = engine.value(w, None)
    val, slack = penalized(w, fval)
    best_feasible = (w, fval) if slack >= 0.0 else None
    trace = [val]
    step = STEP0

    def probe(dvec):
        cand = w + step * dvec
        cand /= np.linalg.norm(cand)
        return (*engine.value(cand, warm), cand)

    def try_step(cf, cwarm, cand):
        """None when cand cannot win (the penalty only lowers its value),
        else whether it was accepted."""
        nonlocal w, val, fval, warm, best_feasible
        if cf <= val + ACCEPT_MARGIN:
            return None
        cv, cs = penalized(cand, cf)
        if cv > val + ACCEPT_MARGIN:
            w, val, fval, warm = cand, cv, cf, cwarm
            if cs >= 0.0 and (best_feasible is None or fval > best_feasible[1]):
                best_feasible = (w, fval)
            trace.append(val)
            return True
        return False

    ceiling = engine.ceiling
    reason = "max_iter"
    edge_tried = edge_accepted = 0  # boundary steps
    compass_probes = 0
    for iterations in range(MAX_ITER):
        if (ceiling is not None and best_feasible is not None
                and best_feasible[1] >= ceiling - ACCEPT_MARGIN):
            reason = "ceiling"
            break
        if step <= STEP_MIN:
            reason = "step"
            break
        if tangent_dim == 0:
            reason = "no tangent"
            break
        gt = _tangent(engine.gradient(w, warm), w, K)
        gn = np.linalg.norm(gt)
        outcome = try_step(*probe(gt / gn)) if gn > 0 else None
        moved = bool(outcome)
        # False: the value takes the step but the penalty refuses it, so an
        # oracle is set; step along the facet that blocks, if it names one
        edge = None
        if outcome is False and (a := oracle.active_normal(w)) is not None:
            edge = _boundary_candidate(w, gt, a, K, step)
        if edge is not None:
            edge_tried += 1
            moved = bool(try_step(*engine.value(edge, warm), edge))
            edge_accepted += moved
        elif not moved and (tangent_dim > 1 or gn == 0):
            dirs = _compass(_tangent_basis(w, keep_normals))
            compass_probes += len(dirs)
            scored = sorted((probe(dvec) for dvec in dirs), key=lambda t: -t[0])
            for cand in scored:
                outcome = try_step(*cand)
                if outcome is not False:  # accepted, or no later entry can win
                    moved = bool(outcome)
                    break
        step = min(step * 1.7, STEP0) if moved else step * 0.5
    else:
        iterations = MAX_ITER
    if best_feasible is not None:
        w, fval = best_feasible
        if ceiling is not None and fval >= ceiling - ACCEPT_MARGIN:
            fval = ceiling  # certified: no direction scores above it
    _log.debug("%s climb stopped (%s) after %d iterations, %d evaluations, "
               "%d compass probes, %d of %d boundary steps accepted, "
               "value %.17g", spec.kind, reason, iterations, engine.evaluations,
               compass_probes, edge_accepted, edge_tried, fval)
    return w, fval, trace


def maximize_overlap(ps: LabeledPointSet, spec: OverlapSpec,
                     keep_normals=None, starts: int = 20, seed: int = 0,
                     feasible: SlackOracle | None = None,
                     hidden: int = 0) -> OptResult:
    """Multi-start hill climbing of the projected overlap over unit vectors.

    Starts are seeded deterministically (per-start streams derived from the
    master seed, order-independent), filtered by the feasibility oracle when
    given (it must be a ``SlackOracle``, whose slack the climb penalizes),
    and climbed with monotone ascent.  At most ``MAX_START_TRIES`` directions
    are sampled.  The best final is the first of highest value.

    No svm value exceeds 2 min(n+, n-) / n, the score at v = 0 with the best
    offset (n+ and n- are the hidden property's side sizes), so an svm climb
    stops once its best feasible value is within ``ACCEPT_MARGIN`` of that
    bound: it has found a global maximum, and reports the bound itself as its
    value (a value read off the inner solver can pass it by rounding).  Each
    climb logs its stop reason, iterations, evaluations and final value at
    DEBUG under ``sepproj.overlap``.
    """
    if starts < 1:
        raise BadParamsError("needs at least one start")
    if feasible is not None and not isinstance(feasible, SlackOracle):
        raise BadParamsError("feasible must be a SlackOracle or None")
    has_normals = keep_normals is not None and len(keep_normals)
    if has_normals:
        K = orthonormalize(np.asarray(keep_normals, dtype=float)).vectors
    start_vecs = []
    for idx in range(MAX_START_TRIES):
        if len(start_vecs) == starts:
            break
        w = np.random.default_rng([seed, idx]).normal(size=ps.d)
        nw = np.linalg.norm(w)
        if nw == 0:
            continue
        w /= nw
        if has_normals:
            w = w - K.T @ (K @ w)
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                continue
            w /= nw
        if w[np.argmax(np.abs(w))] < 0:
            w = -w
        if feasible is not None and not feasible(w):
            continue
        start_vecs.append(w)
    if len(start_vecs) < starts:
        raise BadParamsError(
            f"could only sample {len(start_vecs)} feasible starts"
        )
    finals = []
    best_trace = None
    for w0 in start_vecs:
        w, val, trace = _climb(ps, spec, w0, keep_normals, feasible, hidden)
        finals.append((w, val))
        if best_trace is None or val > best_trace[0]:
            best_trace = (val, trace)
    best_w, best_val = max(finals, key=lambda t: t[1])
    return OptResult(best_w, best_val, starts, best_trace[1], finals)
