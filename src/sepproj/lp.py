"""Small dense LP front end over the two-phase simplex kernel.

Interface mirrors the usual ``min c.x  s.t.  A_ub x <= b_ub, A_eq x = b_eq,
lo <= x <= hi`` shape.  Instances here are tiny (tens of variables), so
everything is dense and deterministic: Dantzig pivoting with an automatic
switch to Bland's rule on degeneracy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import LPError

OPTIMAL = _kernels.LP_OPTIMAL
INFEASIBLE = _kernels.LP_INFEASIBLE
UNBOUNDED = _kernels.LP_UNBOUNDED


@dataclass
class LPResult:
    status: int
    x: np.ndarray | None
    fun: float
    infeasibility: float

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None,
             feas_tol: float = 1e-9) -> LPResult:
    """Solve a dense LP.  ``bounds`` is a list of (lo, hi) per variable with
    ``None`` meaning unbounded; default is (0, None) for every variable.  The
    simplex gets 200 * (rows + columns) + 2000 iterations of the standard
    form."""
    c = np.asarray(c, dtype=float)
    nvar = c.shape[0]
    if bounds is None:
        bounds = [(0.0, None)] * nvar
    if A_ub is None:
        A_ub = np.zeros((0, nvar))
        b_ub = np.zeros(0)
    else:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        b_ub = np.asarray(b_ub, dtype=float)
    if A_eq is None:
        A_eq = np.zeros((0, nvar))
        b_eq = np.zeros(0)
    else:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.asarray(b_eq, dtype=float)

    # Column transforms to reach x' >= 0: shift finite lower bounds, split free
    # variables, negate upper-bounded-only variables.
    cols = []          # per variable: list of (column index, sign)
    shifts = np.zeros(nvar)
    extra_ub_rows = []  # (var, hi) for finite upper bounds
    ncols = 0
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            cols.append(((ncols, 1.0), (ncols + 1, -1.0)))
            ncols += 2
        elif lo is None:
            # x <= hi only: substitute x = hi - x', x' >= 0
            shifts[j] = hi
            cols.append(((ncols, -1.0),))
            ncols += 1
        else:
            shifts[j] = lo
            cols.append(((ncols, 1.0),))
            ncols += 1
            if hi is not None:
                extra_ub_rows.append((j, hi - lo))

    def expand(M):
        out = np.zeros((M.shape[0], ncols))
        for j in range(nvar):
            for idx, sgn in cols[j]:
                out[:, idx] += sgn * M[:, j]
        return out

    A_ub_x = expand(A_ub)
    b_ub_x = b_ub - A_ub @ shifts
    A_eq_x = expand(A_eq)
    b_eq_x = b_eq - A_eq @ shifts
    c_x = np.zeros(ncols)
    for j in range(nvar):
        for idx, sgn in cols[j]:
            c_x[idx] += sgn * c[j]

    n_extra = len(extra_ub_rows)
    n_ub = A_ub_x.shape[0] + n_extra
    n_eq = A_eq_x.shape[0]
    A = np.zeros((n_ub + n_eq, ncols + n_ub))
    b = np.zeros(n_ub + n_eq)
    A[: A_ub_x.shape[0], :ncols] = A_ub_x
    b[: A_ub_x.shape[0]] = b_ub_x
    for r, (j, cap) in enumerate(extra_ub_rows):
        row = A_ub_x.shape[0] + r
        for idx, sgn in cols[j]:
            A[row, idx] = sgn
        b[row] = cap
    for i in range(n_ub):
        A[i, ncols + i] = 1.0
    A[n_ub:, :ncols] = A_eq_x
    b[n_ub:] = b_eq_x

    c_full = np.concatenate([c_x, np.zeros(n_ub)])
    max_iter = 200 * (A.shape[0] + A.shape[1]) + 2000
    # heavily degenerate instances (coincident points, exact symmetry) can
    # stall or numerically break the pivoting; graded deterministic jitter on
    # the right-hand side, then on the matrix, removes the degeneracy while
    # staying far below every certificate-validation tolerance
    scale_b = max(1.0, float(np.abs(b).max()) if b.size else 1.0)
    scale_a = max(1.0, float(np.abs(A).max()) if A.size else 1.0)
    rows = np.arange(1.0, A.shape[0] + 1.0)
    retryable = (_kernels.LP_ITERATION_LIMIT, _kernels.LP_BREAKDOWN)
    status = _kernels.LP_ITERATION_LIMIT
    for b_jit, a_jit in ((0.0, 0.0), (1e-11, 0.0), (4e-10, 1e-11), (2e-8, 4e-10)):
        bj = b + b_jit * scale_b * rows
        if a_jit:
            rng = np.random.default_rng(0x51D)
            Aj = A + a_jit * scale_a * rng.standard_normal(A.shape)
        else:
            Aj = A
        status, xs, _, infeas = _kernels.simplex_standard(Aj, bj, c_full,
                                                          feas_tol, max_iter)
        if status not in retryable:
            break
    if status in retryable:
        raise LPError("simplex could not solve the instance")
    if status != OPTIMAL:
        return LPResult(status, None, np.nan, infeas)
    x = shifts.copy()
    for j in range(nvar):
        for idx, sgn in cols[j]:
            x[j] += sgn * xs[idx]
    return LPResult(OPTIMAL, x, float(c @ x), infeas)
