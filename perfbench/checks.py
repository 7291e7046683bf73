"""Output checks that do not reuse the program's own solvers.

Verdicts are recomputed with HiGHS (``scipy.optimize.linprog``), planes and
convex coefficients with plain numpy, svm overlap values with SLSQP and
interval overlap values exactly from convex hulls (qhull).  Every check raises
``Mismatch`` when the program's answer disagrees.

LP references run on data translated to its centroid and scaled to unit
radius, so their thresholds hold whatever the scale of the input.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.spatial import ConvexHull, QhullError

# thresholds on normalized (unit-radius) data
SEP_TOL = 1e-7      # max slack above this: strictly separable
COEF_TOL = 1e-9     # convex coefficients: sign and sum
FIT_TOL = 1e-7      # recombination and plane residuals, relative to the scale
ORTH_TOL = 1e-8     # orthonormality and orthogonality to keep normals
# interval overlap: sampled minimum above the exact one, relative to the data
# scale.  At climbed directions in a 2-d reduced space the excess stayed below
# 1.3e-4 of the scale; in 3-d it reached 1.6e-2 (see CHANGES.md).
INTERVAL_APPROX = 1e-3
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class Mismatch(Exception):
    """The program's answer disagrees with the independent computation."""


def expect(cond, msg):
    if not cond:
        raise Mismatch(msg)


def _normalized(*sets):
    X = np.vstack(sets)
    c = X.mean(axis=0)
    s = float(np.abs(X - c).max()) or 1.0
    return [(np.asarray(S, dtype=float) - c) / s for S in sets], s


def scale_of(*sets):
    return max(float(np.abs(np.vstack(sets)).max()), 1e-300)


def _lp(c, **kw):
    res = linprog(c, method="highs", options=_HIGHS, **kw)
    if res.status != 0:
        raise Mismatch(f"reference LP ended with status {res.status}: {res.message}")
    return res


def max_slack(P, Q, fix=None):
    """Largest t with v.p <= c - t on P and v.q >= c + t on Q, |v|_inf <= 1,
    on normalized data.  ``fix=(j, s)`` pins v_j = s.  Positive means
    strictly separable; with a pinned coordinate, t >= 0 means weakly
    separable along that normalization."""
    (P, Q), _ = _normalized(P, Q)
    d = P.shape[1]
    A = np.block([[P, -np.ones((len(P), 1)), np.ones((len(P), 1))],
                  [-Q, np.ones((len(Q), 1)), np.ones((len(Q), 1))]])
    bounds = [(-1.0, 1.0)] * d + [(None, None), (None, None)]
    if fix is not None:
        bounds[fix[0]] = (fix[1], fix[1])
    cost = np.zeros(d + 2)
    cost[-1] = -1.0
    return float(-_lp(cost, A_ub=A, b_ub=np.zeros(len(A)), bounds=bounds).fun)


def weak_slack(P, Q):
    """max over the 2d normalizations of ``max_slack``: >= 0 iff some nonzero
    v has max v.P <= min v.Q."""
    d = np.asarray(P).shape[1]
    return max(max_slack(P, Q, (j, s)) for j in range(d) for s in (1.0, -1.0))


def hull_gap(P, Q):
    """min |sum lam_i p_i - sum mu_j q_j|_1 over convex lam, mu on normalized
    data: zero iff the hulls intersect."""
    (P, Q), _ = _normalized(P, Q)
    n, m, d = len(P), len(Q), P.shape[1]
    A_eq = np.zeros((d + 2, n + m + 2 * d))
    A_eq[:d, :n] = P.T
    A_eq[:d, n:n + m] = -Q.T
    A_eq[:d, n + m:n + m + d] = np.eye(d)
    A_eq[:d, n + m + d:] = -np.eye(d)
    A_eq[d, :n] = 1.0
    A_eq[d + 1, n:n + m] = 1.0
    b_eq = np.zeros(d + 2)
    b_eq[d:] = 1.0
    cost = np.concatenate([np.zeros(n + m), np.ones(2 * d)])
    return float(_lp(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None)).fun)


def in_hull(x, P):
    return hull_gap(np.asarray(x, dtype=float)[None, :], P) <= 1e-9


def complement(rows, d):
    """Orthonormal basis (rows) of the complement of span(rows) in R^d."""
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    if A.size == 0:
        return np.eye(d)
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int((s > 1e-10 * s[0]).sum())
    return Vt[rank:]


def project(X, B):
    B = np.atleast_2d(B)
    return X - (X @ B.T) @ B if B.size else X.copy()


# ---------------------------------------------------------------------------
# separability certificates


def check_plane(P, Q, plane, strict, margin=None):
    """Unit normal, P on the negative side and Q on the positive side; with
    ``strict`` the sides must not touch and ``margin`` must match."""
    n = np.asarray(plane.normal, dtype=float)
    expect(abs(np.linalg.norm(n) - 1.0) <= 1e-9, "plane normal is not unit")
    sp = P @ n - plane.offset
    sq = Q @ n - plane.offset
    tol = FIT_TOL * scale_of(P, Q)
    if strict:
        expect(sp.max() < 0.0 < sq.min(), "plane does not strictly separate")
        if margin is not None:
            expect(abs(0.5 * (sq.min() - sp.max()) - margin) <= tol,
                   "reported margin differs from the plane's gap")
    else:
        expect(sp.max() <= tol and sq.min() >= -tol, "plane does not weakly separate")


def check_common_point(P, Q, x, lam, mu):
    expect(x is not None and lam is not None and mu is not None,
           "incomplete common-point certificate")
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    expect(lam.shape == (len(P),) and mu.shape == (len(Q),), "coefficient lengths")
    expect(lam.min() >= -COEF_TOL and mu.min() >= -COEF_TOL, "negative coefficient")
    expect(abs(lam.sum() - 1.0) <= COEF_TOL and abs(mu.sum() - 1.0) <= COEF_TOL,
           "coefficients do not sum to one")
    tol = FIT_TOL * scale_of(P, Q)
    expect(np.linalg.norm(lam @ P - x) <= tol and np.linalg.norm(mu @ Q - x) <= tol,
           "coefficients do not recombine to the common point")


def check_separation(P, Q, res, strict=True):
    """A SeparationResult of linear_separability(P, Q, strict)."""
    slack = max_slack(P, Q)
    if res.separable and res.strict:
        expect(slack > SEP_TOL, f"claimed strictly separable, reference slack {slack:.3e}")
        check_plane(P, Q, res.hyperplane, True, res.margin)
    elif res.separable:
        expect(not strict, "weak answer to a strict question")
        expect(slack <= SEP_TOL, "claimed only weakly separable but strictly separable")
        check_plane(P, Q, res.hyperplane, False)
    else:
        expect(slack <= SEP_TOL, f"claimed inseparable, reference slack {slack:.3e}")
        expect(hull_gap(P, Q) <= 1e-9, "reference finds the hulls disjoint")
        if not strict:
            expect(weak_slack(P, Q) < 0.0, "claimed not weakly separable but it is")
        check_common_point(P, Q, res.point, res.lam, res.mu)


def max_margin(P, Q):
    """Euclidean max margin of strictly separable P, Q: half the distance
    between their hulls, min |lam P - mu Q| over convex lam, mu, by SLSQP
    on normalized data."""
    (P, Q), s = _normalized(P, Q)
    n, m = len(P), len(Q)

    def gap(z):
        return z[:n] @ P - z[n:] @ Q

    def fun(z):
        r = gap(z)
        return r @ r

    def jac(z):
        r = 2.0 * gap(z)
        return np.concatenate([P @ r, -(Q @ r)])

    cons = [{"type": "eq", "fun": lambda z: [z[:n].sum() - 1.0, z[n:].sum() - 1.0],
             "jac": lambda z: np.vstack([np.r_[np.ones(n), np.zeros(m)],
                                         np.r_[np.zeros(n), np.ones(m)]])}]
    z0 = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = minimize(fun, z0, jac=jac, bounds=[(0.0, None)] * (n + m), constraints=cons,
                   method="SLSQP", options={"ftol": 1e-12, "maxiter": 5000})
    expect(res.success, f"reference hull-distance QP failed: {res.message}")
    return 0.5 * s * float(np.sqrt(fun(res.x)))


# ---------------------------------------------------------------------------
# projections


def check_basis(B, normals):
    """Orthonormal rows, each orthogonal to every keep normal."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    expect(np.abs(B @ B.T - np.eye(len(B))).max() <= ORTH_TOL, "basis is not orthonormal")
    if len(normals) and len(B):
        expect(np.abs(np.asarray(normals) @ B.T).max() <= ORTH_TOL,
               "basis is not orthogonal to the keep normals")


def check_keep_planes(X, labels, planes):
    for i, h in planes.items():
        check_plane(X[labels[i] < 0], X[labels[i] > 0], h, True)


def check_projection(X, labels, planes, out, hidden=0, predicate="1,1"):
    """A ProjectionOutcome: orthonormal basis orthogonal to the keep normals,
    projected points recomputed, hidden property no longer separable under
    the predicate, every keep plane still separating."""
    B = out.basis.vectors
    check_basis(B, [h.normal for h in planes.values()])
    Xp = project(X, B)
    expect(np.abs(out.projected.points - Xp).max() <= FIT_TOL * scale_of(X),
           "projected points differ from the recomputed projection")
    neg, pos = Xp[labels[hidden] < 0], Xp[labels[hidden] > 0]
    if predicate == "1,1":
        expect(max_slack(neg, pos) <= SEP_TOL, "hidden property still strictly separable")
    else:
        p_idx, q_idx = out.evidence
        expect(in_hull(neg[p_idx], pos) and in_hull(pos[q_idx], neg),
               "hidden property still (1,inf)-separable")
    check_keep_planes(Xp, labels, planes)


def check_impossible(out, predicate="1,1"):
    """An ImpossibleOutcome: the predicate really holds on the projection onto
    the keep-normal span."""
    expect(out.impossible, "expected an impossibility certificate")
    qn, qp = out.projected_sides
    if predicate == "1,1":
        expect(max_slack(qn, qp) > SEP_TOL, "evidence sides are not strictly separable")
        check_plane(qn, qp, out.evidence.hyperplane, True)
    else:
        q_in = any(in_hull(q, qn) for q in qp)
        p_in = any(in_hull(p, qp) for p in qn)
        expect(not (q_in and p_in), "evidence sides are not (1,inf)-separable")


def check_perturbation(P, Q, w, w2, eps=1e-6):
    """Perturbed direction: unit, within eps of +-w, and the projected sides
    not even weakly separable inside the image flat."""
    w2 = np.asarray(w2, dtype=float)
    expect(abs(np.linalg.norm(w2) - 1.0) <= 1e-12, "perturbed direction is not unit")
    expect(min(np.linalg.norm(w2 - w), np.linalg.norm(w2 + w)) <= eps * (1 + 1e-9),
           "perturbation moved the direction too far")
    Z = complement(w2[None, :], len(w2))
    expect(weak_slack(P @ Z.T, Q @ Z.T) < 0.0, "projected sides still weakly separable")


def check_report(X, labels, B, planes, rep):
    """A ProjectionReport: per-property verdicts and margins, and the
    orthogonality residual, recomputed."""
    Xp = project(X, B)
    for chk in rep.properties:
        neg, pos = Xp[labels[chk.prop] < 0], Xp[labels[chk.prop] > 0]
        strict = max_slack(neg, pos) > SEP_TOL
        expect(chk.strict == strict, f"property {chk.prop}: strict verdict differs")
        if strict:
            check_plane(neg, pos, chk.result.hyperplane, True, chk.margin)
            expect(chk.margin <= max_margin(neg, pos) * (1 + 1e-5),
                   f"property {chk.prop}: margin exceeds the maximum margin")
        else:
            expect(chk.weak == (weak_slack(neg, pos) >= -1e-9),
                   f"property {chk.prop}: weak verdict differs")
    if planes and len(B):
        N = np.array([h.normal for h in planes.values()])
        expect(abs(np.abs(N @ np.atleast_2d(B).T).max() - rep.preserving_residual) <= 1e-12,
               "orthogonality residual differs")


# ---------------------------------------------------------------------------
# overlap values


def svm_overlap(X, y, w, normals, lam):
    """min over (v orthogonal to w and the normals, b) of
    lam |v|^2 + mean(max(0, 1 - y (v.x - b))), by SLSQP on the reduced
    primal with slack variables.  The value returned is the objective at the
    solver's (u, b) with the slacks recomputed exactly, so it is attained."""
    rows = [w] + list(normals)
    Z = complement(np.array(rows), X.shape[1])
    Xr = X @ Z.T
    n, m = Xr.shape
    Yx = y[:, None] * Xr

    def exact(z):
        u, b = z[:m], z[m]
        return lam * u @ u + np.maximum(0.0, 1.0 - (Yx @ u - y * b)).mean()

    def fun(z):
        u, xi = z[:m], z[m + 1:]
        return lam * u @ u + xi.mean()

    def jac(z):
        g = np.zeros_like(z)
        g[:m] = 2.0 * lam * z[:m]
        g[m + 1:] = 1.0 / n
        return g

    # xi_i - 1 + y_i (u.x_i - b) >= 0
    A = np.hstack([Yx, -y[:, None], np.eye(n)])
    cons = [{"type": "ineq", "fun": lambda z: A @ z - 1.0, "jac": lambda z: A}]
    bounds = [(None, None)] * (m + 1) + [(0.0, None)] * n
    z = np.concatenate([np.zeros(m + 1), np.ones(n)])
    best = exact(z)
    for _ in range(3):   # restart where SLSQP's line search gives up
        res = minimize(fun, z, jac=jac, bounds=bounds, constraints=cons, method="SLSQP",
                       options={"ftol": 1e-13, "maxiter": 2000})
        z = res.x
        best = min(best, exact(z))
        if res.status == 0:
            break
    return float(best)


def _min_support(S):
    """min over unit u of max_{s in S} u.s, exactly, from the facet offsets
    of the hull of S; 0 when the hull is flat, where that minimum is at most 0
    and the overlap is 0 anyway."""
    m = S.shape[1]
    if m == 1:
        return float(min(S.max(), -S.min()))
    try:
        hull = ConvexHull(S)
    except QhullError:
        return 0.0  # flat hull: some unit u has max u.s <= 0
    return float((-hull.equations[:, -1]).min())


def interval_overlap(X, y, w, normals):
    """min over unit v orthogonal to w and the normals of the length of the
    overlap of the two sides' ranges along v.  The overlap is the minimum of
    four support functions (of N-N, N-P, P-N, P-P), and the minimum of a
    support function over the sphere is the smallest facet offset of its
    hull."""
    Z = complement(np.array([w] + list(normals)), X.shape[1])
    N, P = X[y < 0] @ Z.T, X[y > 0] @ Z.T
    diffs = [(A[:, None, :] - B[None, :, :]).reshape(-1, Z.shape[0])
             for A in (N, P) for B in (N, P)]
    return max(0.0, min(_min_support(S) for S in diffs))


def check_climb(X, y, normals, res, kind, lam=None):
    """OptResult: unit best direction orthogonal to the keep normals whose
    reported value matches the independent recomputation."""
    w = np.asarray(res.best, dtype=float)
    expect(abs(np.linalg.norm(w) - 1.0) <= 1e-9, "best direction is not unit")
    if len(normals):
        expect(np.abs(np.asarray(normals) @ w).max() <= ORTH_TOL,
               "best direction is not orthogonal to the keep normals")
    if kind == "svm":
        ref = svm_overlap(X, y, w, normals, lam)
        expect(abs(ref - res.value) <= 1e-6 * max(1.0, abs(ref)),
               f"svm overlap {res.value!r} differs from reference {ref!r}")
    else:
        ref = interval_overlap(X, y, w, normals)
        scale = scale_of(X)
        # the program samples directions, so its value is attained and never
        # below the minimum; it may exceed it by the documented approximation
        expect(ref - 1e-9 * scale <= res.value <= ref + INTERVAL_APPROX * scale,
               f"interval overlap {res.value!r} differs from reference {ref!r}")


def check_feasible(X, labels, w, keep):
    """After projecting along w every kept property stays strictly separable."""
    Z = complement(np.asarray(w)[None, :], X.shape[1])
    F = X @ Z.T
    for i in keep:
        expect(max_slack(F[labels[i] < 0], F[labels[i] > 0]) > 0.0,
               f"kept property {i} inseparable at the returned direction")
