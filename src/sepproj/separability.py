"""Separability predicates with certificates.

Strict linear separability is decided by a maximum-slack LP (max s with
v.p <= c - s for one side, v.q >= c + s for the other, |v|_inf <= 1); the
non-strict variant is decided exactly by fixing one coordinate of the normal
to +-1.  Inseparability is certified by a common hull point with convex
coefficients on both sides.  Certificates are re-validated arithmetically on
every call.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    ActuallySeparableError,
    BruteForceCapError,
    DimensionMismatchError,
    InvalidCertificateError,
    InvalidWitnessError,
)
from .geometry import as_points
from .lp import solve_lp

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane {x : normal . x = offset} with unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))
        object.__setattr__(self, "offset", float(self.offset))

    def side_values(self, X) -> np.ndarray:
        return as_points(X) @ self.normal - self.offset

    def separates(self, P, Q, strict: bool, tol: float = 1e-7) -> bool:
        """P on the negative side, Q on the positive side."""
        sp = self.side_values(P)
        sq = self.side_values(Q)
        if strict:
            return bool(sp.max() < tol and sq.min() > -tol and sp.max() < sq.min())
        return bool(sp.max() <= tol and sq.min() >= -tol)


@dataclass
class SeparationResult:
    """Either a separating hyperplane (with its Euclidean margin) or a common
    hull point with convex coefficients over both input sets."""

    separable: bool
    strict: bool = False
    hyperplane: Hyperplane | None = None
    margin: float | None = None
    point: np.ndarray | None = None
    lam: np.ndarray | None = None   # coefficients over P
    mu: np.ndarray | None = None    # coefficients over Q

    def validate(self, P, Q, tol: float = 1e-7) -> None:
        P, Q = as_points(P), as_points(Q)
        if self.separable:
            h = self.hyperplane
            if h is None or abs(np.linalg.norm(h.normal) - 1.0) > 1e-8:
                raise InvalidCertificateError("missing or non-unit separating normal")
            if not h.separates(P, Q, strict=self.strict, tol=tol):
                raise InvalidCertificateError("hyperplane does not separate as flagged")
            if self.strict and (self.margin is None or self.margin < -tol):
                raise InvalidCertificateError("strict separation requires a margin")
        else:
            check_common_point_certificate(P, Q, self.point, self.lam, self.mu, tol=tol)

    def recombination_residual(self, P, Q) -> float:
        P, Q = as_points(P), as_points(Q)
        rp = np.linalg.norm(self.lam @ P - self.point)
        rq = np.linalg.norm(self.mu @ Q - self.point)
        return float(max(rp, rq))


def check_common_point_certificate(P, Q, x, lam, mu, tol: float = 1e-7) -> None:
    P, Q = as_points(P), as_points(Q)
    if x is None or lam is None or mu is None:
        raise InvalidCertificateError("incomplete common-point certificate")
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if lam.shape[0] != P.shape[0] or mu.shape[0] != Q.shape[0]:
        raise InvalidCertificateError("coefficient lengths do not match point counts")
    if lam.min(initial=0.0) < -1e-9 or mu.min(initial=0.0) < -1e-9:
        raise InvalidCertificateError("negative convex coefficient")
    if abs(lam.sum() - 1.0) > 1e-9 or abs(mu.sum() - 1.0) > 1e-9:
        raise InvalidCertificateError("coefficients do not sum to 1")
    if np.linalg.norm(lam @ P - x) > tol or np.linalg.norm(mu @ Q - x) > tol:
        raise InvalidCertificateError("coefficients do not recombine to the point")


def _check_pair(P, Q):
    P, Q = as_points(P), as_points(Q)
    if P.shape[0] == 0 or Q.shape[0] == 0:
        raise DimensionMismatchError("both point sets must be nonempty")
    if P.shape[1] != Q.shape[1]:
        raise DimensionMismatchError(
            f"sets live in R^{P.shape[1]} and R^{Q.shape[1]}"
        )
    return P, Q


def _slack_lp(P, Q, bounds, tols: Tolerances):
    """(v, c, s) maximizing s with v.p <= c - s, v.q >= c + s and the
    variables (v, c, s) within ``bounds``."""
    n, d = P.shape
    m = Q.shape[0]
    A_ub = np.zeros((n + m, d + 2))
    A_ub[:n, :d] = P
    A_ub[:n, d] = -1.0
    A_ub[:n, d + 1] = 1.0
    A_ub[n:, :d] = -Q
    A_ub[n:, d] = 1.0
    A_ub[n:, d + 1] = 1.0
    b_ub = np.zeros(n + m)
    cost = np.zeros(d + 2)
    cost[d + 1] = -1.0
    res = solve_lp(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, feas_tol=tols.lp)
    if not res.ok:
        raise InvalidCertificateError("slack LP unexpectedly unsolvable")
    return res.x


def max_slack_separator(P, Q, tols: Tolerances = DEFAULT_TOLS):
    """(slack, v, c) maximizing s with v.p <= c - s, v.q >= c + s, |v|_inf <= 1.

    slack > 0 iff strictly separable; slack == 0 at best when not.
    """
    P, Q = _check_pair(P, Q)
    d = P.shape[1]
    x = _slack_lp(P, Q, [(-1.0, 1.0)] * d + [(None, None), (None, None)], tols)
    return float(x[d + 1]), x[:d], float(x[d])


def weak_separator(P, Q, tols: Tolerances = DEFAULT_TOLS):
    """Nonzero (v, c) with v.p <= c <= v.q for all points, or None.

    Exact: any weak separator scales to |v|_inf = 1, so fixing each coordinate
    to +-1 in turn covers all directions.  Each fixed coordinate solves the
    slack LP, which always has an optimum, also when the sides only just
    touch (a pure feasibility LP can end there without a verdict); the sides
    are weakly separable along it when the slack is >= -tols.lp times the
    data scale.
    """
    P, Q = _check_pair(P, Q)
    d = P.shape[1]
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(Q).max()))
    for j in range(d):
        for sgn in (1.0, -1.0):
            bounds = [(-1.0, 1.0)] * d + [(None, None), (None, None)]
            bounds[j] = (sgn, sgn)
            x = _slack_lp(P, Q, bounds, tols)
            if x[d + 1] >= -tols.lp * scale:
                return x[:d], float(x[d])
    return None


def _affine_minimizer(S):
    """Weights (summing to 1) of the minimum-norm point in the affine hull of
    the rows of S, from [[S S^T, 1], [1^T, 0]] [a; mu] = [0; 1]."""
    k = len(S)
    A = np.ones((k + 1, k + 1))
    A[:k, :k] = S @ S.T
    A[k, k] = 0.0
    b = np.zeros(k + 1)
    b[k] = 1.0
    try:
        return np.linalg.solve(A, b)[:k]
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(A, b, rcond=None)[0][:k]


def _hard_margin_direction(P, Q, max_iter: int = 1000):
    """Maximum-margin direction: the minimum-norm point x of
    conv(Q) - conv(P), normalized, or None when it is not found.

    Wolfe's nearest-point algorithm on the differences q_j - p_i, which are
    never formed all at once: the vertex minimizing x.(q_j - p_i) is the
    argmin of x.q_j against the argmax of x.p_i.  The corral S holds such
    differences, and x is their combination with positive weights lam summing
    to 1.  The major cycle stops once |x|^2 - x.z <= 1e-13 |x|^2, or once it
    fails to lower |x|^2.  The data is centred and scaled to unit radius
    first, so the direction does not depend on the input's scale.
    """
    X = np.vstack([P, Q])
    c = X.mean(axis=0)
    s = float(np.abs(X - c).max()) or 1.0
    P0, Q0 = (P - c) / s, (Q - c) / s

    def vertex(x):
        return Q0[int(np.argmin(Q0 @ x))] - P0[int(np.argmax(P0 @ x))]

    S = vertex(Q0.mean(axis=0) - P0.mean(axis=0))[None, :]
    lam = np.ones(1)
    x = S[0]
    iterations = 0
    while True:
        z = vertex(x)
        xx = float(x @ x)
        gap = xx - float(x @ z)
        if not np.isfinite(xx) or gap <= 1e-13 * xx or iterations == max_iter:
            break
        iterations += 1
        S = np.vstack([S, z])
        lam = np.append(lam, 0.0)
        while True:
            alpha = _affine_minimizer(S)
            if alpha.min() > 1e-14:
                lam = alpha
                break
            # step from lam towards alpha until the first weight reaches zero;
            # entries with alpha_i >= lam_i cannot block (0/0 when equal)
            out = np.flatnonzero((alpha <= 1e-14) & (alpha < lam))
            ratios = lam[out] / (lam[out] - alpha[out])
            if out.size and ratios.min() < 1.0:
                k = int(np.argmin(ratios))
                lam = ratios[k] * alpha + (1.0 - ratios[k]) * lam
                lam[out[k]] = 0.0
                keep = lam > 0.0
            else:
                lam = alpha
                keep = alpha > 1e-14
            S, lam = S[keep], lam[keep] / lam[keep].sum()
        x_new = lam @ S
        if float(x_new @ x_new) >= xx:
            break
        x = x_new
    nx = float(np.sqrt(xx))
    if nx <= 0 or not np.isfinite(nx) or gap > 1e-6 * xx:
        _log.debug("hard-margin nearest-point iteration gave no direction after "
                   "%d iterations (relative gap %.3g, |x| %.3g); keeping the LP "
                   "direction", iterations, gap / xx if xx > 0 else float("nan"),
                   nx * s)
        return None
    return x / nx


def _best_plane(P, Q, candidates):
    """Pick the candidate direction with the widest gap; return plane + margin."""
    best = None
    for v in candidates:
        if v is None:
            continue
        nv = np.linalg.norm(v)
        if nv <= 0:
            continue
        u = v / nv
        gap = Q @ u
        lo = float((P @ u).max())
        hi = float(gap.min())
        margin = 0.5 * (hi - lo)
        if best is None or margin > best[1]:
            best = (u, margin, 0.5 * (hi + lo))
    u, margin, c = best
    return Hyperplane(u, c), max(margin, 0.0)


def linear_separability(P, Q, strict: bool = True,
                        tols: Tolerances = DEFAULT_TOLS) -> SeparationResult:
    """Decide (strict) linear separability of P from Q with a certificate.

    Separable results carry the best hyperplane found (maximum Euclidean
    margin when strict); inseparable results carry a certified common hull
    point.
    """
    P, Q = _check_pair(P, Q)
    slack, v_lp, _ = max_slack_separator(P, Q, tols)
    if slack > tols.lp:
        plane, margin = _best_plane(P, Q, [v_lp, _hard_margin_direction(P, Q)])
        result = SeparationResult(True, strict=True, hyperplane=plane, margin=margin)
        result.validate(P, Q)
        return result
    if not strict:
        weak = weak_separator(P, Q, tols)
        if weak is not None:
            v, c = weak
            nv = np.linalg.norm(v)
            plane = Hyperplane(v / nv, c / nv)
            result = SeparationResult(True, strict=False, hyperplane=plane, margin=0.0)
            result.validate(P, Q)
            return result
    x, lam, mu = common_point(P, Q, tols)
    result = SeparationResult(False, point=x, lam=lam, mu=mu)
    result.validate(P, Q)
    return result


def point_in_hull(x, P, tols: Tolerances = DEFAULT_TOLS):
    """(flag, coefficients) for membership of x in the convex hull of P."""
    P = as_points(P)
    x = np.asarray(x, dtype=float)
    if P.shape[1] != x.shape[0]:
        raise DimensionMismatchError("point and hull dimension differ")
    n, d = P.shape
    A_eq = np.vstack([P.T, np.ones((1, n))])
    b_eq = np.concatenate([x, [1.0]])
    scale = max(1.0, float(np.abs(b_eq).max()))
    res = solve_lp(np.zeros(n), A_eq=A_eq, b_eq=b_eq, feas_tol=tols.lp * scale)
    if not res.ok:
        return False, None
    lam = np.clip(res.x, 0.0, None)
    s = lam.sum()
    if s > 0:
        lam = lam / s
    return True, lam


def common_point(P, Q, tols: Tolerances = DEFAULT_TOLS):
    """A certified point of CH(P) ∩ CH(Q): returns (x, lam, mu).

    Raises ActuallySeparableError when the hulls do not intersect.
    """
    P, Q = _check_pair(P, Q)
    n, d = P.shape
    m = Q.shape[0]
    A_eq = np.zeros((d + 2, n + m))
    A_eq[:d, :n] = P.T
    A_eq[:d, n:] = -Q.T
    A_eq[d, :n] = 1.0
    A_eq[d + 1, n:] = 1.0
    b_eq = np.zeros(d + 2)
    b_eq[d] = 1.0
    b_eq[d + 1] = 1.0
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(Q).max()))
    res = solve_lp(np.zeros(n + m), A_eq=A_eq, b_eq=b_eq, feas_tol=tols.lp * scale)
    if not res.ok:
        raise ActuallySeparableError("convex hulls do not intersect")
    lam = np.clip(res.x[:n], 0.0, None)
    mu = np.clip(res.x[n:], 0.0, None)
    lam /= lam.sum()
    mu /= mu.sum()
    x = 0.5 * (lam @ P + mu @ Q)
    check_common_point_certificate(P, Q, x, lam, mu, tol=max(tols.geom, 10 * tols.lp * scale))
    return x, lam, mu


def deep_common_point(P, Q, tols: Tolerances = DEFAULT_TOLS):
    """Common hull point maximizing the smallest convex coefficient.

    Returns (x, lam, mu, depth); depth > 0 means every input point carries
    weight in the certificate (useful as a fully dense reduction input).
    """
    P, Q = _check_pair(P, Q)
    n, d = P.shape
    m = Q.shape[0]
    # vars: lam (n), mu (m), t ; maximize t with lam_i >= t, mu_j >= t
    A_eq = np.zeros((d + 2, n + m + 1))
    A_eq[:d, :n] = P.T
    A_eq[:d, n:n + m] = -Q.T
    A_eq[d, :n] = 1.0
    A_eq[d + 1, n:n + m] = 1.0
    b_eq = np.zeros(d + 2)
    b_eq[d] = 1.0
    b_eq[d + 1] = 1.0
    A_ub = np.zeros((n + m, n + m + 1))
    A_ub[:, :n + m] = -np.eye(n + m)
    A_ub[:, n + m] = 1.0
    b_ub = np.zeros(n + m)
    cost = np.zeros(n + m + 1)
    cost[n + m] = -1.0
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(Q).max()))
    res = solve_lp(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   feas_tol=tols.lp * scale)
    if not res.ok:
        raise ActuallySeparableError("convex hulls do not intersect")
    lam = np.clip(res.x[:n], 0.0, None)
    mu = np.clip(res.x[n:n + m], 0.0, None)
    lam /= lam.sum()
    mu /= mu.sum()
    x = 0.5 * (lam @ P + mu @ Q)
    check_common_point_certificate(P, Q, x, lam, mu, tol=max(tols.geom, 10 * tols.lp * scale))
    return x, lam, mu, float(res.x[n + m])


@dataclass
class KirchbergerWitness:
    idx_p: np.ndarray
    idx_q: np.ndarray
    lam: np.ndarray   # aligned with idx_p
    mu: np.ndarray    # aligned with idx_q
    point: np.ndarray

    @property
    def total_size(self) -> int:
        return len(self.idx_p) + len(self.idx_q)


def kirchberger_reduce(P, Q, x, lam, mu,
                       tols: Tolerances = DEFAULT_TOLS) -> KirchbergerWitness:
    """Shrink a common-point certificate to at most d+2 support points.

    Each round solves one homogeneous balance system over at most d+3 active
    points (columns (p_i, 1, 0) and (-q_j, 0, 1), d+2 equations), steps the
    coefficients by the largest feasible multiple of the kernel vector, and
    drops every coefficient that reaches zero.  Cost is O((|P|+|Q|) d^3).
    """
    P, Q = _check_pair(P, Q)
    check_common_point_certificate(P, Q, x, lam, mu, tol=max(tols.geom, 1e-7))
    d = P.shape[1]
    lam = np.asarray(lam, dtype=float).copy()
    mu = np.asarray(mu, dtype=float).copy()
    zero = 1e-13

    def actives(c):
        return [i for i in range(len(c)) if c[i] > zero]

    act_p, act_q = actives(lam), actives(mu)
    while len(act_p) + len(act_q) > d + 2:
        take_p = act_p[: min(len(act_p), d + 3)]
        take_q = act_q[: max(0, d + 3 - len(take_p))]
        cols = len(take_p) + len(take_q)
        M = np.zeros((d + 2, cols))
        for c_, i in enumerate(take_p):
            M[:d, c_] = P[i]
            M[d, c_] = 1.0
        for c_, j in enumerate(take_q):
            off = len(take_p) + c_
            M[:d, off] = -Q[j]
            M[d + 1, off] = 1.0
        _, _, Vt = np.linalg.svd(M)
        z = Vt[-1]
        if not (z > zero).any():
            z = -z
        rho = np.inf
        for c_, i in enumerate(take_p):
            if z[c_] > zero:
                rho = min(rho, lam[i] / z[c_])
        for c_, j in enumerate(take_q):
            zc = z[len(take_p) + c_]
            if zc > zero:
                rho = min(rho, mu[j] / zc)
        if not np.isfinite(rho):
            raise InvalidCertificateError("kernel step has no positive direction")
        for c_, i in enumerate(take_p):
            lam[i] -= rho * z[c_]
        for c_, j in enumerate(take_q):
            mu[j] -= rho * z[len(take_p) + c_]
        np.clip(lam, 0.0, None, out=lam)
        np.clip(mu, 0.0, None, out=mu)
        new_p, new_q = actives(lam), actives(mu)
        if len(new_p) + len(new_q) >= len(act_p) + len(act_q):
            # rounding left the limiting coefficient marginally positive; it is
            # zero in exact arithmetic, so clear the smallest participant
            cands = [(lam[i], 0, i) for i in take_p if lam[i] > 0.0]
            cands += [(mu[j], 1, j) for j in take_q if mu[j] > 0.0]
            _, side, idx = min(cands)
            if side == 0:
                lam[idx] = 0.0
            else:
                mu[idx] = 0.0
            new_p, new_q = actives(lam), actives(mu)
        lam /= lam.sum()
        mu /= mu.sum()
        act_p, act_q = new_p, new_q
    idx_p = np.array(act_p, dtype=int)
    idx_q = np.array(act_q, dtype=int)
    lam_star = lam[idx_p] / lam[idx_p].sum()
    mu_star = mu[idx_q] / mu[idx_q].sum()
    point = 0.5 * (lam_star @ P[idx_p] + mu_star @ Q[idx_q])
    out = KirchbergerWitness(idx_p, idx_q, lam_star, mu_star, point)
    check_common_point_certificate(P[idx_p], Q[idx_q], point, lam_star, mu_star,
                                   tol=max(tols.geom, 1e-7))
    return out


def one_infty_separable(P, Q, tols: Tolerances = DEFAULT_TOLS):
    """One-vs-many convex separability: holds unless some point of P lies in
    CH(Q) and some point of Q lies in CH(P).  Returns (flag, p_idx, q_idx)."""
    P, Q = _check_pair(P, Q)
    q_idx = None
    for j in range(Q.shape[0]):
        inside, _ = point_in_hull(Q[j], P, tols)
        if inside:
            q_idx = j
            break
    if q_idx is None:
        return True, None, None
    p_idx = None
    for i in range(P.shape[0]):
        inside, _ = point_in_hull(P[i], Q, tols)
        if inside:
            p_idx = i
            break
    if p_idx is None:
        return True, None, None
    return False, p_idx, q_idx


def _ray_exit_support(center, target, H, tols: Tolerances):
    """Maximize t with center + t (target - center) in CH(H); return (t, support).

    The optimal basic solution has at most d nonzero hull coefficients, so the
    segment from the center to the exit point lies in a simplex spanned by the
    center plus those support points.
    """
    H = as_points(H)
    n, d = H.shape
    direction = target - center
    # vars: lam (n), t ; eq: sum lam_i H_i - t*direction = center ; sum lam = 1
    A_eq = np.zeros((d + 1, n + 1))
    A_eq[:d, :n] = H.T
    A_eq[:d, n] = -direction
    A_eq[d, :n] = 1.0
    b_eq = np.concatenate([center, [1.0]])
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    scale = max(1.0, float(np.abs(H).max()))
    res = solve_lp(cost, A_eq=A_eq, b_eq=b_eq, feas_tol=tols.lp * scale)
    if not res.ok:
        raise InvalidWitnessError("ray LP infeasible; center not inside the hull")
    lam = res.x[:n]
    support = np.nonzero(lam > 1e-9)[0]
    return float(res.x[n]), support, lam


def one_infty_witness(P, Q, p_idx: int, q_idx: int,
                      tols: Tolerances = DEFAULT_TOLS):
    """Shrink a mutual-containment pair to at most d+1 points per side.

    Walks the ray from each contained point through the other witness to the
    hull boundary; the boundary point's support plus the center spans a simplex
    still containing the other witness.
    """
    P, Q = _check_pair(P, Q)
    d = P.shape[1]
    p_star, q_star = P[p_idx], Q[q_idx]
    ok_p, _ = point_in_hull(p_star, Q, tols)
    ok_q, _ = point_in_hull(q_star, P, tols)
    if not (ok_p and ok_q):
        raise InvalidWitnessError("claimed witnesses fail their hull memberships")
    if np.linalg.norm(q_star - p_star) <= tols.geom:
        return np.array([p_idx]), np.array([q_idx])
    _, sup_p, _ = _ray_exit_support(p_star, q_star, P, tols)
    _, sup_q, _ = _ray_exit_support(q_star, p_star, Q, tols)
    idx_p = np.unique(np.concatenate([[p_idx], sup_p]))
    idx_q = np.unique(np.concatenate([[q_idx], sup_q]))
    if len(idx_p) > d + 1 or len(idx_q) > d + 1:
        raise InvalidWitnessError("degenerate support exceeded the simplex size")
    in_p, _ = point_in_hull(q_star, P[idx_p], tols)
    in_q, _ = point_in_hull(p_star, Q[idx_q], tols)
    if not (in_p and in_q):
        raise InvalidWitnessError("witness simplices lost a containment")
    return idx_p, idx_q


@dataclass
class BCCover:
    """Convex grouping certificate: hulls of P-groups and Q-groups are pairwise
    disjoint.  ``roles_swapped`` records that the group-count budgets were
    applied to (Q, P) instead of (P, Q)."""

    groups_p: tuple[tuple[int, ...], ...]
    groups_q: tuple[tuple[int, ...], ...]
    roles_swapped: bool = False

    def validate(self, P, Q, tols: Tolerances = DEFAULT_TOLS) -> None:
        P, Q = as_points(P), as_points(Q)
        covered_p = sorted(i for g in self.groups_p for i in g)
        covered_q = sorted(j for g in self.groups_q for j in g)
        if covered_p != list(range(P.shape[0])) or covered_q != list(range(Q.shape[0])):
            raise InvalidCertificateError("cover groups do not partition the points")
        for gp in self.groups_p:
            for gq in self.groups_q:
                slack, _, _ = max_slack_separator(P[list(gp)], Q[list(gq)], tols)
                if slack <= tols.lp:
                    raise InvalidCertificateError(
                        f"groups {gp} and {gq} are not strictly separable"
                    )


def _partitions_up_to(n_items: int, max_parts: int):
    """Set partitions of range(n) into at most max_parts blocks, in restricted
    growth order (deterministic)."""
    def rec(i, blocks):
        if i == n_items:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < max_parts:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()
    yield from rec(0, [])


def bc_separable_bruteforce(P, Q, b: int, c: int, max_points: int = 14,
                            tols: Tolerances = DEFAULT_TOLS):
    """Exhaustively decide coverability of P by <= b convex sets and Q by <= c
    (or the budgets swapped) with both unions disjoint.

    Returns (flag, BCCover | None).  The first success in the deterministic
    enumeration order is returned.
    """
    P, Q = _check_pair(P, Q)
    if P.shape[0] + Q.shape[0] > max_points:
        raise BruteForceCapError(
            f"{P.shape[0] + Q.shape[0]} points exceed the cap of {max_points}"
        )
    pair_cache: dict[tuple, bool] = {}

    def pair_ok(gp, gq) -> bool:
        key = (gp, gq)
        hit = pair_cache.get(key)
        if hit is None:
            slack, _, _ = max_slack_separator(P[list(gp)], Q[list(gq)], tols)
            hit = slack > tols.lp
            pair_cache[key] = hit
        return hit

    def search(budget_p, budget_q, swapped):
        for parts_p in _partitions_up_to(P.shape[0], budget_p):
            for parts_q in _partitions_up_to(Q.shape[0], budget_q):
                if all(pair_ok(gp, gq) for gp in parts_p for gq in parts_q):
                    return BCCover(parts_p, parts_q, roles_swapped=swapped)
        return None

    cover = search(b, c, swapped=False)
    if cover is None and b != c:
        cover = search(c, b, swapped=True)
    if cover is None:
        return False, None
    cover.validate(P, Q, tols)
    return True, cover
