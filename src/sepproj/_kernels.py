"""Hot numeric kernels: the HiGHS LP call and an SMO solver for the SVM dual.

The LP kernel hands a whole model to HiGHS's dual revised simplex (Huangfu &
Hall, *Math. Prog. Comp.* 2018) through the binding that scipy bundles.  The
SMO kernel is plain numpy: each step is a handful of whole-array operations,
with ties broken towards the first index as a scan in index order would, so
its pair sequence is deterministic.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's compiled HiGHS binding, loaded from its file by the first LP.

    ``import scipy.optimize`` takes about half a second, the extension alone
    about 10 ms, and sepproj's own import neither.  The module is registered
    under its own name, so a later ``import scipy.optimize`` reuses it, and
    an earlier one is reused here.
    """
    mod = sys.modules.get(_HIGHS_MODULE)
    if mod is not None:
        return mod
    spec = importlib.util.find_spec("scipy")  # locates scipy, does not import it
    for base in (spec.submodule_search_locations or ()) if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "optimize", "_highspy", "_core" + suffix)
            if not os.path.isfile(path):
                continue
            core = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
            mod = importlib.util.module_from_spec(core)
            sys.modules[_HIGHS_MODULE] = mod
            try:
                core.loader.exec_module(mod)
            except BaseException:
                del sys.modules[_HIGHS_MODULE]
                raise
            return mod
    raise ImportError("sepproj needs scipy>=1.17: its LP solver is HiGHS, loaded "
                      "from scipy's bundled optimize/_highspy/_core extension, "
                      "which was not found")


_local = threading.local()


def _solver(highs):
    """This thread's HiGHS instance.  ``passModel`` clears the previous model,
    basis and solution, so every solve starts cold and gives the same answer
    as a fresh instance, without the cost of building one."""
    h = getattr(_local, "highs", None)
    if h is None:
        options = highs.HighsOptions()
        options.output_flag = False
        # presolve stays on, as in HiGHS's default, though it costs about
        # 0.1 ms per LP: the optimal vertices of the hull-membership LPs
        # choose the Kirchberger witness and with it the eliminating
        # projection, and the vertices reached without presolve gave
        # perfbench's hide workload a kept-margin quality of 0.8198 against
        # 0.8826.  An infeasibility that presolve finds reports an infinite
        # sum of primal infeasibilities.
        options.presolve = "on"
        options.primal_feasibility_tolerance = 1e-10
        options.dual_feasibility_tolerance = 1e-10
        h = _local.highs = highs._Highs()
        h.passOptions(options)
    return h


def simplex_standard(c, A, row_lo, row_hi, col_lo, col_hi):
    """Minimize c.x subject to row_lo <= A x <= row_hi and col_lo <= x <= col_hi
    with HiGHS's dual simplex; infinite entries are absent bounds.

    Returns (HiGHS model status name, such as "kOptimal", x or None, sum of
    primal infeasibilities); x is the column values when the status is
    optimal.  The name is the one of the dense-tableau simplex this call
    replaced: the benchmark's per-layer trace looks the LP kernel up under it.
    """
    highs = _load_highs()
    m, n = A.shape
    # CSC: nonzeros of A column by column, each column's rows in order
    cols, rows = np.nonzero(A.T)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=start[1:])
    # the binding converts lists to its vectors faster than arrays
    lp = highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = col_lo.tolist()
    lp.col_upper_ = col_hi.tolist()
    lp.row_lower_ = row_lo.tolist()
    lp.row_upper_ = row_hi.tolist()
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = m
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = rows.tolist()
    lp.a_matrix_.value_ = A[rows, cols].tolist()
    h = _solver(highs)
    if h.passModel(lp) == highs.HighsStatus.kError:
        return "kModelError", None, np.inf
    h.run()
    status = h.getModelStatus()
    x = None
    if status == highs.HighsModelStatus.kOptimal:
        x = np.array(h.getSolution().col_value)
    return status.name, x, float(h.getInfo().sum_primal_infeasibilities)


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
