"""Element-by-element reference version of the SMO kernel.

Tests run it against ``sepproj._kernels`` and require the same results: the
same SMO pairs, hence equal iteration counts and solutions.  Slow; keep the
test instances small.
"""
import numpy as np


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
