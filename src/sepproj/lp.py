"""Small dense LP front end over HiGHS.

``solve_lp`` takes the usual ``min c.x  s.t.  A_ub x <= b_ub, A_eq x = b_eq,
lo <= x <= hi`` shape and hands it to HiGHS's dual revised simplex in one
call (``_kernels.simplex_standard``): the rows ``[A_ub; A_eq]`` with row
bounds ``(-inf, b_ub]`` and ``[b_eq, b_eq]``, and the variable bounds as
they are.  HiGHS runs with presolve at feasibility tolerances of 1e-10.  An
optimal point is returned only after its row and bound residuals pass a
check relative to the data scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import LPError

OPTIMAL = 0
INFEASIBLE = 1
UNBOUNDED = 2

# HiGHS model status names; any other status raises LPError
_STATUS = {
    "kOptimal": OPTIMAL,
    "kInfeasible": INFEASIBLE,
    "kUnbounded": UNBOUNDED,
    "kUnboundedOrInfeasible": UNBOUNDED,
}


@dataclass
class LPResult:
    status: int
    x: np.ndarray | None
    fun: float
    infeasibility: float

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def _rows(A, b, nvar):
    if A is None:
        return np.zeros((0, nvar)), np.zeros(0)
    return np.atleast_2d(np.asarray(A, dtype=float)), np.asarray(b, dtype=float)


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None,
             feas_tol: float = 1e-9) -> LPResult:
    """Solve a dense LP.  ``bounds`` is a list of (lo, hi) per variable with
    ``None`` meaning unbounded; default is (0, None) for every variable.

    An optimal x violates no row or bound by more than ``feas_tol`` times
    ``max(1, max|A| max|x|, max|b|)``, or ``LPError`` is raised.  HiGHS's
    "unbounded or infeasible" counts as unbounded; any status other than
    optimal, infeasible or unbounded raises ``LPError``.  On an infeasible
    exit ``infeasibility`` is HiGHS's sum of primal infeasibilities, infinite
    when presolve found the conflict.
    """
    c = np.asarray(c, dtype=float)
    nvar = c.shape[0]
    A_ub, b_ub = _rows(A_ub, b_ub, nvar)
    A_eq, b_eq = _rows(A_eq, b_eq, nvar)
    if bounds is None:
        lo, hi = np.zeros(nvar), np.full(nvar, np.inf)
    else:
        lo = np.array([-np.inf if l is None else l for l, _ in bounds], dtype=float)
        hi = np.array([np.inf if h is None else h for _, h in bounds], dtype=float)
    A = np.vstack([A_ub, A_eq])
    b = np.concatenate([b_ub, b_eq])
    row_lo = np.concatenate([np.full(b_ub.shape[0], -np.inf), b_eq])
    status, x, infeasibility = _kernels.simplex_standard(c, A, row_lo, b, lo, hi)
    code = _STATUS.get(status)
    if code is None:
        raise LPError(f"HiGHS ended with model status {status}")
    if code != OPTIMAL:
        return LPResult(code, None, np.nan, infeasibility)
    Ax = A @ x
    # a NaN anywhere makes the residual NaN, which fails the check
    residual = np.concatenate([row_lo - Ax, Ax - b, lo - x, x - hi]).max(initial=0.0)
    scale = max(1.0, np.abs(A).max(initial=0.0) * np.abs(x).max(initial=0.0),
                np.abs(b).max(initial=0.0))
    if not residual <= feas_tol * scale:
        raise LPError(f"HiGHS optimum violates a constraint by {residual:.3g} "
                      f"(allowed {feas_tol * scale:.3g})")
    return LPResult(OPTIMAL, x, float(c @ x), infeasibility)
