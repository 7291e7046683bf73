"""Hot numeric kernels: dense tableau simplex and an SMO solver for the SVM dual.

Both are plain numpy: each pivot and each SMO step is a handful of whole-array
operations, with no compiled extension.  Selection rules break ties towards
the first index, as a scan in index order would, and every tableau and
gradient entry is updated with the same products and subtractions as an
element-by-element loop, so the pivot and pair sequences are deterministic.
"""
from __future__ import annotations

import numpy as np

LP_OPTIMAL = 0
LP_INFEASIBLE = 1
LP_UNBOUNDED = 2
LP_ITERATION_LIMIT = 3
LP_BREAKDOWN = 4

_COST_TOL = 1e-10
_PIVOT_MIN = 2e-9     # absolute floor on pivot magnitude
_PIVOT_REL = 1e-7     # relative floor against the column's largest entry
_RATIO_TIE = 1e-9
_BLOWUP = 1e12        # tableau magnitude that signals numerical breakdown


def _pivot(T, basis, row, col):
    T[row, :] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    rows = np.flatnonzero(f)
    T[rows, :] -= f[rows, None] * T[row, :]
    basis[row] = col


def _simplex_iterate(T, basis, ncols, max_iter):
    """Minimize the cost row over columns [0, ncols).

    Dantzig pricing with a switch to Bland's entering rule after a run of
    degenerate pivots (anti-cycling).  The leaving row uses a two-pass ratio
    test: among rows whose ratio is within a small band of the minimum, the
    largest pivot element wins, which keeps the tableau well conditioned on
    heavily degenerate instances."""
    m = T.shape[0] - 1
    cost = T[m, :ncols]
    stall = 0
    bland = False
    for _ in range(max_iter):
        if bland:
            col = int(np.argmax(cost < -_COST_TOL))
        else:
            col = int(np.argmin(cost))
        if not cost[col] < -_COST_TOL:
            return LP_OPTIMAL
        a = T[:m, col]
        eligible = max(_PIVOT_MIN, _PIVOT_REL * np.abs(a).max(initial=0.0))
        rows = np.flatnonzero(a > eligible)
        if rows.size == 0:
            return LP_UNBOUNDED
        ratios = T[rows, -1] / a[rows]
        best_ratio = ratios.min()
        if not np.isfinite(best_ratio):
            return LP_UNBOUNDED
        tied = rows[ratios <= best_ratio + _RATIO_TIE * (1.0 + abs(best_ratio))]
        if bland:
            row = tied[np.argmin(basis[tied])]
        else:
            row = tied[np.argmax(a[tied])]
        if best_ratio < 1e-12:
            stall += 1
            if stall > 80:
                bland = True
        else:
            stall = 0
            bland = False
        _pivot(T, basis, row, col)
        if np.abs(T[m]).max() > _BLOWUP:
            return LP_BREAKDOWN
    return LP_ITERATION_LIMIT


def simplex_standard(A, b, c, feas_tol, max_iter):
    """Two-phase simplex for min c.x s.t. A x = b, x >= 0.

    Returns (status, x, objective, infeasibility) where infeasibility is the
    phase-1 optimum (sum of artificial variables).
    """
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    flip = ~(b >= 0.0)
    T[:m, :n] = np.where(flip[:, None], -A, A)
    T[:m, -1] = np.where(flip, -b, b)
    T[np.arange(m), n + np.arange(m)] = 1.0
    basis = np.arange(n, n + m)
    # phase-1 reduced costs: cost 1 on artificials, basis = artificials; the
    # axis-0 sum adds the rows in order
    colsum = T[:m].sum(axis=0)
    T[m, :n] = -colsum[:n]
    T[m, -1] = -colsum[-1]
    status = _simplex_iterate(T, basis, n + m, max_iter)
    infeas = -T[m, -1]
    x = np.zeros(n)
    if status == LP_UNBOUNDED:
        # the feasibility objective is bounded below; this is numerical
        return LP_BREAKDOWN, x, 0.0, infeas
    if status != LP_OPTIMAL:
        return status, x, 0.0, infeas
    if infeas > feas_tol:
        return LP_INFEASIBLE, x, 0.0, infeas
    # drive artificial variables out of the basis where possible, pivoting on
    # the best-conditioned eligible element
    for i in np.flatnonzero(basis >= n):
        j = int(np.argmax(np.abs(T[i, :n])))
        if abs(T[i, j]) > 1e-9:
            _pivot(T, basis, i, j)
    # phase 2 over structural columns only
    T[m, :] = 0.0
    T[m, :n] = c
    for i in np.flatnonzero(basis < n):
        cb = c[basis[i]]
        if cb != 0.0:
            T[m, :] -= cb * T[i, :]
    status = _simplex_iterate(T, basis, n, max_iter)
    if status == LP_ITERATION_LIMIT or status == LP_BREAKDOWN:
        return status, x, 0.0, infeas
    basic = basis < n
    x[basis[basic]] = T[:m][basic, -1]
    obj = float(c @ x)
    if status == LP_UNBOUNDED:
        return LP_UNBOUNDED, x, obj, infeas
    return LP_OPTIMAL, x, obj, infeas


def smo_box_equality(K, y, C, lam, alpha, kkt_tol, max_iter):
    """Maximize sum(a) - (1/(4 lam)) a'Qa with Q_ij = y_i y_j K_ij,
    subject to 0 <= a <= C and y.a = 0, by maximal-violating-pair SMO.

    Labels `y` are +-1.  `alpha` is updated in place (must be feasible).
    Returns (iterations, final KKT violation).
    """
    # each row summed in index order by a running sum rather than by BLAS, so
    # the gradient of a warm start, and with it the pair path, does not
    # depend on the BLAS build
    u = np.cumsum(K * (alpha * y), axis=1)[:, -1] / (2.0 * lam)
    bound_tol = 1e-14
    # with s = y * alpha, a point can move up (y.alpha grows) while
    # s < up_lim and down while s > dn_lim
    pos = y > 0.0
    up_lim = np.where(pos, C - bound_tol, -bound_tol)
    dn_lim = np.where(pos, bound_tol, -(C - bound_tol))
    viol = np.inf
    for it in range(max_iter):
        s = y * alpha
        t = y - u
        hi = np.where(s < up_lim, t, -np.inf)
        lo = np.where(s > dn_lim, t, np.inf)
        i = int(hi.argmax())
        j = int(lo.argmin())
        if hi[i] == -np.inf or lo[j] == np.inf:
            viol = 0.0
            break
        viol = hi[i] - lo[j]
        if viol <= kkt_tol:
            break
        denom = K[i, i] + K[j, j] - 2.0 * K[i, j]
        d = 2.0 * lam * viol / denom if denom > 1e-300 else np.inf
        cap_i = C - alpha[i] if pos[i] else alpha[i]
        cap_j = alpha[j] if pos[j] else C - alpha[j]
        d = min(d, cap_i, cap_j)
        if d <= 0.0:
            break
        alpha[i] += y[i] * d
        alpha[j] -= y[j] * d
        u += d / (2.0 * lam) * (K[:, i] - K[:, j])
    else:
        it = max_iter  # the budget ran out: every pass made a step
    return it, viol
