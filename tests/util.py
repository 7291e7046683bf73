"""Shared fixture generators for the test suite."""
import numpy as np

from sepproj.config import GEOM_TOL, LP_TOL
from sepproj.data import LabeledPointSet
from sepproj.errors import ActuallySeparableError
from sepproj.lp import solve_lp
from sepproj.separability import check_common_point_certificate, point_in_hull


def planted_separable_pair(rng, d, n, m, margin):
    """(P, Q, v): all of P at signed distance <= -margin from the plane v.x=0,
    all of Q at >= +margin."""
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    Y = rng.normal(size=(n + m, d))
    Y -= np.outer(Y @ v, v)
    tp = -(margin + rng.uniform(0.0, 1.0, size=n))
    tq = margin + rng.uniform(0.0, 1.0, size=m)
    P = Y[:n] + np.outer(tp, v)
    Q = Y[n:] + np.outer(tq, v)
    return P, Q, v


def touching_pair(rng, d, n, m):
    """(P, Q): a planted pair whose sides share one point on the plane
    v.x = 0, so they are weakly but not strictly separable."""
    P, Q, v = planted_separable_pair(rng, d, n, m, 0.2)
    x0 = rng.normal(size=d)
    x0 -= (x0 @ v) * v
    P[0] = x0
    Q[0] = x0
    return P, Q


def random_intersecting_pair(rng, d, n, m, max_tries=200):
    """Point sets whose hulls both contain the origin (so they intersect)."""
    for _ in range(max_tries):
        P = rng.normal(size=(n, d))
        Q = rng.normal(size=(m, d))
        in_p, _ = point_in_hull(np.zeros(d), P)
        in_q, _ = point_in_hull(np.zeros(d), Q)
        if in_p and in_q:
            return P, Q
    raise RuntimeError("could not sample intersecting hulls")


def mutual_containment_pair(rng, d, n, m):
    """(P, Q): some point of Q inside CH(P) and some point of P inside CH(Q).

    P surrounds the origin; Q is a cluster containing one deep point of P and
    placed so that one of its own points is the origin-area point of P...
    Construction: P = simplex-ish cloud around origin plus one point x0 that
    sits inside CH(Q); Q = cloud around x0 plus one point at the origin.
    """
    P = rng.normal(size=(n - 1, d)) + rng.normal(size=d) * 0.0
    # ensure the origin is interior to CH(P): add mirrored points
    P = np.vstack([P, -P[: d + 1]])
    x0 = rng.normal(size=d) * 0.2
    Q = x0 + 0.5 * rng.normal(size=(m - 1, d))
    Q = np.vstack([Q, x0 + 0.5 * -(Q[: d + 1] - x0)])
    # P gets a point deep inside CH(Q); Q gets a point deep inside CH(P)
    P = np.vstack([P, x0])
    Q = np.vstack([Q, np.zeros(d)])
    return P, Q


def deep_common_point(P, Q):
    """Common hull point maximizing the smallest convex coefficient.

    Returns (x, lam, mu, depth); depth > 0 means every input point carries
    weight in the certificate (a fully dense reduction input).
    """
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
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
    cost = np.zeros(n + m + 1)
    cost[n + m] = -1.0
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(Q).max()))
    res = solve_lp(cost, A_ub=A_ub, b_ub=np.zeros(n + m), A_eq=A_eq, b_eq=b_eq,
                   feas_tol=LP_TOL * scale)
    if not res.ok:
        raise ActuallySeparableError("convex hulls do not intersect")
    lam = np.clip(res.x[:n], 0.0, None)
    mu = np.clip(res.x[n:n + m], 0.0, None)
    lam /= lam.sum()
    mu /= mu.sum()
    x = 0.5 * (lam @ P + mu @ Q)
    check_common_point_certificate(P, Q, x, lam, mu,
                                   tol=max(GEOM_TOL, 10 * LP_TOL * scale))
    return x, lam, mu, float(res.x[n + m])


def planted_instance(seed, n, d, k, margin=0.15):
    """n points at distance >= margin from k random planes through the
    origin, labeled by side; returns the set and the unit plane normals."""
    rng = np.random.default_rng(seed)
    N = rng.normal(size=(k, d))
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    pts = []
    while len(pts) < n:
        x = rng.normal(size=d)
        if np.abs(N @ x).min() >= margin:
            pts.append(x)
    P = np.array(pts)
    return LabeledPointSet(P, np.where(P @ N.T > 0, 1, -1).T), N
