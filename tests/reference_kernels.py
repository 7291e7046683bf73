"""Element-by-element reference versions of the simplex and SMO kernels.

Tests run these against ``sepproj._kernels`` and require the same results:
the same pivots and SMO pairs, hence equal statuses, iteration counts and
solutions.  Slow; keep the test instances small.
"""
import numpy as np

from sepproj._kernels import (
    _BLOWUP,
    _COST_TOL,
    _PIVOT_MIN,
    _PIVOT_REL,
    _RATIO_TIE,
    LP_BREAKDOWN,
    LP_INFEASIBLE,
    LP_ITERATION_LIMIT,
    LP_OPTIMAL,
    LP_UNBOUNDED,
)



def _pivot(T, basis, row, col):
    piv = T[row, col]
    T[row, :] /= piv
    for i in range(T.shape[0]):
        if i != row:
            f = T[i, col]
            if f != 0.0:
                T[i, :] -= f * T[row, :]
    basis[row] = col


def _simplex_iterate(T, basis, ncols, max_iter):
    m = T.shape[0] - 1
    stall = 0
    bland = False
    for _ in range(max_iter):
        col = -1
        if bland:
            for j in range(ncols):
                if T[m, j] < -_COST_TOL:
                    col = j
                    break
        else:
            best = -_COST_TOL
            for j in range(ncols):
                if T[m, j] < best:
                    best = T[m, j]
                    col = j
        if col < 0:
            return LP_OPTIMAL
        col_max = 0.0
        for i in range(m):
            a = abs(T[i, col])
            if a > col_max:
                col_max = a
        eligible = _PIVOT_MIN
        if _PIVOT_REL * col_max > eligible:
            eligible = _PIVOT_REL * col_max
        best_ratio = np.inf
        for i in range(m):
            a = T[i, col]
            if a > eligible:
                r = T[i, -1] / a
                if r < best_ratio:
                    best_ratio = r
        if not np.isfinite(best_ratio):
            return LP_UNBOUNDED
        band = best_ratio + _RATIO_TIE * (1.0 + abs(best_ratio))
        row = -1
        best_piv = 0.0
        for i in range(m):
            a = T[i, col]
            if a > eligible:
                r = T[i, -1] / a
                if r <= band:
                    if bland:
                        if row < 0 or basis[i] < basis[row]:
                            row = i
                    elif a > best_piv:
                        best_piv = a
                        row = i
        if best_ratio < 1e-12:
            stall += 1
            if stall > 80:
                bland = True
        else:
            stall = 0
            bland = False
        _pivot(T, basis, row, col)
        blew = False
        for j in range(T.shape[1]):
            if abs(T[m, j]) > _BLOWUP:
                blew = True
                break
        if blew:
            return LP_BREAKDOWN
    return LP_ITERATION_LIMIT


def simplex_standard(A, b, c, feas_tol, max_iter):
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    for i in range(m):
        if b[i] >= 0.0:
            T[i, :n] = A[i]
            T[i, -1] = b[i]
        else:
            T[i, :n] = -A[i]
            T[i, -1] = -b[i]
        T[i, n + i] = 1.0
    basis = np.arange(n, n + m)
    # phase-1 reduced costs: cost 1 on artificials, basis = artificials
    for j in range(n):
        s = 0.0
        for i in range(m):
            s += T[i, j]
        T[m, j] = -s
    T[m, -1] = 0.0
    for i in range(m):
        T[m, -1] -= T[i, -1]
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
    for i in range(m):
        if basis[i] >= n:
            jbest = -1
            abest = 1e-9
            for j in range(n):
                a = abs(T[i, j])
                if a > abest:
                    abest = a
                    jbest = j
            if jbest >= 0:
                _pivot(T, basis, i, jbest)
    # phase 2 over structural columns only
    for j in range(n + m):
        T[m, j] = 0.0
    for j in range(n):
        T[m, j] = c[j]
    T[m, -1] = 0.0
    for i in range(m):
        if basis[i] < n:
            cb = c[basis[i]]
            if cb != 0.0:
                T[m, :] -= cb * T[i, :]
    status = _simplex_iterate(T, basis, n, max_iter)
    if status == LP_ITERATION_LIMIT or status == LP_BREAKDOWN:
        return status, x, 0.0, infeas
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, -1]
    obj = 0.0
    for j in range(n):
        obj += c[j] * x[j]
    if status == LP_UNBOUNDED:
        return LP_UNBOUNDED, x, obj, infeas
    return LP_OPTIMAL, x, obj, infeas


def smo_box_equality(K, y, C, lam, alpha, kkt_tol, max_iter):
    n = K.shape[0]
    u = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += K[i, j] * alpha[j] * y[j]
        u[i] = acc / (2.0 * lam)
    bound_tol = 1e-14
    viol = np.inf
    for it in range(max_iter):
        hi_t = -np.inf
        lo_t = np.inf
        hi_i = -1
        lo_i = -1
        for i in range(n):
            t = y[i] - u[i]
            movable_up = (y[i] > 0.0 and alpha[i] < C - bound_tol) or (
                y[i] < 0.0 and alpha[i] > bound_tol
            )
            movable_dn = (y[i] > 0.0 and alpha[i] > bound_tol) or (
                y[i] < 0.0 and alpha[i] < C - bound_tol
            )
            if movable_up and t > hi_t:
                hi_t = t
                hi_i = i
            if movable_dn and t < lo_t:
                lo_t = t
                lo_i = i
        if hi_i < 0 or lo_i < 0:
            viol = 0.0
            break
        viol = hi_t - lo_t
        if viol <= kkt_tol:
            break
        i = hi_i
        j = lo_i
        denom = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if denom > 1e-300:
            d = 2.0 * lam * viol / denom
        else:
            d = np.inf
        if y[i] > 0.0:
            cap_i = C - alpha[i]
        else:
            cap_i = alpha[i]
        if y[j] > 0.0:
            cap_j = alpha[j]
        else:
            cap_j = C - alpha[j]
        if cap_i < d:
            d = cap_i
        if cap_j < d:
            d = cap_j
        if d <= 0.0:
            break
        alpha[i] += y[i] * d
        alpha[j] -= y[j] * d
        scale = d / (2.0 * lam)
        for t_ in range(n):
            u[t_] += scale * (K[t_, i] - K[t_, j])
    else:
        it = max_iter  # the budget ran out: every pass made a step
    return it, viol
