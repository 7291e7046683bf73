"""Golden values for the two numeric kernels, and agreement with the
element-by-element reference in ``reference_kernels``.

The expected figures were recorded from the element-by-element
implementation.  Pivot and pair selection must follow the same path, so
iteration counts, statuses and simplex solutions are pinned exactly.  Inputs
are small multiples of 1/8, so every Gram entry is exact whatever the BLAS.
"""
import numpy as np
import pytest
from scipy.optimize import linprog

import reference_kernels
from sepproj import _kernels
from sepproj.overlap import _fix_equality

C_SOFT = 1.0 / 24


def _dyadic_pair(seed):
    rng = np.random.default_rng(seed)
    P = rng.integers(-16, 17, size=(12, 3)) / 8.0
    Q = rng.integers(-16, 17, size=(12, 3)) / 8.0
    return P, Q


def _labels():
    return np.repeat([-1.0, 1.0], 12)


def _soft_points():
    P, Q = _dyadic_pair(12)
    Q[:, 0] += 0.5
    return np.vstack([P, Q])


def _hard_margin_points():
    P, Q = _dyadic_pair(11)
    P[:, 0] = -np.abs(P[:, 0]) - 0.25
    Q[:, 0] = np.abs(Q[:, 0]) + 0.25
    return np.vstack([P, Q])


def test_smo_hard_margin_zero_start():
    # the call _hard_margin_direction makes: box at 1e14, lam = 0.5
    X = _hard_margin_points()
    alpha = np.zeros(24)
    it, viol = _kernels.smo_box_equality(X @ X.T, _labels(), 1e14, 0.5, alpha,
                                         1e-11, 60000)
    assert (it, viol) == (196, 8.959055719515163e-12)
    expected = np.zeros(24)
    expected[[1, 13, 23]] = [3.45204325772011, 1.7639965546897833,
                             1.688046703030326]
    np.testing.assert_allclose(alpha, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kernel", [_kernels.smo_box_equality,
                                    reference_kernels.smo_box_equality])
def test_smo_exhausted_budget_counts_every_step(kernel):
    # the solve above needs 196 steps; cut after 3, it has made 3
    X = _hard_margin_points()
    alpha = np.zeros(24)
    it, viol = kernel(X @ X.T, _labels(), 1e14, 0.5, alpha, 1e-11, 3)
    assert it == 3
    assert viol > 1e-11
    assert kernel(X @ X.T, _labels(), 1e14, 0.5, np.zeros(24), 1e-11, 0) \
        == (0, np.inf)


_SOFT_ALPHA = [
    0.041666666666666664, 0.041666666666666664, 0.0, 0.041666666666666664,
    0.041666666666666664, 0.021678857362304783, 0.041666666666666664, 0.0,
    0.041666666666666664, 0.033709541882312545, 0.041666666666666664,
    0.041666666666666664, 0.041666666666666664, 0.041666666666666664,
    0.030253999126779434, 0.0, 0.041666666666666664, 0.025134400117837886,
    0.041666666666666664, 0.041666666666666664, 0.0, 0.041666666666666664,
    0.041666666666666664, 0.041666666666666664,
]


def test_smo_soft_box_zero_start():
    X = _soft_points()
    alpha = np.zeros(24)
    it, viol = _kernels.smo_box_equality(X @ X.T, _labels(), C_SOFT, 0.05,
                                         alpha, 1e-12, 200000)
    assert (it, viol) == (162, 4.617417559416026e-13)
    np.testing.assert_allclose(alpha, _SOFT_ALPHA, rtol=0, atol=1e-12)


def test_smo_soft_box_warm_start():
    # warm start as the svm climb makes it: the solution at a nearby
    # projection, disturbed, then clipped and rebalanced by _fix_equality
    X = _soft_points()
    y = _labels()
    alpha0 = np.zeros(24)
    _kernels.smo_box_equality(X[:, :2] @ X[:, :2].T, y, C_SOFT, 0.05, alpha0,
                              1e-12, 200000)
    alpha0[::3] *= 1.5
    alpha = _fix_equality(alpha0, y, C_SOFT)
    it, viol = _kernels.smo_box_equality(X @ X.T, y, C_SOFT, 0.05, alpha,
                                         1e-12, 200000)
    assert it == 118
    # the initial gradient of a nonzero start is a sum whose order is not
    # part of the kernel's contract
    assert viol == pytest.approx(6.472600233564663e-13, rel=1e-9)
    np.testing.assert_allclose(alpha, _SOFT_ALPHA, rtol=0, atol=1e-12)


def _max_slack_standard(P, Q):
    """min -s over v = v+ - v-, c = c+ - c-, s >= 0 and row slacks, with
    v.p - c + s <= 0, c - v.q + s <= 0 and |v|_1 <= 1, in the form A x = b."""
    n, d = P.shape
    m = Q.shape[0]
    A = np.zeros((n + m + 1, 2 * d + 4 + n + m))
    A[:n, :d], A[:n, d:2 * d] = P, -P
    A[n:n + m, :d], A[n:n + m, d:2 * d] = -Q, Q
    A[:n + m, 2 * d:2 * d + 3] = np.vstack([np.tile([-1.0, 1.0, 1.0], (n, 1)),
                                            np.tile([1.0, -1.0, 1.0], (m, 1))])
    A[:n + m, 2 * d + 3:2 * d + 3 + n + m] = np.eye(n + m)
    A[n + m, :2 * d] = 1.0
    A[n + m, -1] = 1.0
    b = np.zeros(n + m + 1)
    b[-1] = 1.0
    c = np.zeros(A.shape[1])
    c[2 * d + 2] = -1.0
    return A, b, c


def _random_lp():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 7))
    b = A @ rng.uniform(0.0, 1.0, 7)
    return A, b, rng.uniform(0.1, 1.0, 7)


# (A, b, c), status, nonzero entries of x, objective.  The coincident cases
# repeat two points many times; each runs more than 80 consecutive
# zero-ratio pivots, so the simplex switches to Bland's rule.
_LPS = {
    "optimal": (_random_lp(), _kernels.LP_OPTIMAL,
                {0: 0.21454178991927414, 1: 0.22110715974385065,
                 3: 0.1048797060873438, 5: 0.2645703886425946},
                0.42455863606399846),
    "infeasible": ((np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]),
                    np.zeros(2)), _kernels.LP_INFEASIBLE, {}, 0.0),
    "unbounded": ((np.array([[1.0, -1.0]]), np.array([1.0]),
                   np.array([-1.0, 0.0])), _kernels.LP_UNBOUNDED, {0: 1.0}, -1.0),
    "coincident_separable": (
        _max_slack_standard(np.array([[0.0, 0.0], [0.0, 1.0]] * 25),
                            np.array([[2.0, 0.0], [2.0, 1.0]] * 25)),
        _kernels.LP_OPTIMAL, {0: 1.0, 4: 1.0, 6: 1.0}, -1.0),
    "coincident_inseparable": (
        _max_slack_standard(np.array([[1.0, 0.0], [0.0, 1.0]] * 24),
                            np.array([[0.0, 1.0], [1.0, 0.0]] * 24)),
        _kernels.LP_OPTIMAL, {0: 0.5, 2: 0.5}, 0.0),
}


@pytest.mark.parametrize("name", list(_LPS))
def test_simplex_standard_golden(name):
    (A, b, c), status, nonzero, objective = _LPS[name]
    st, x, obj, _ = _kernels.simplex_standard(A, b, c, 1e-9, 20000)
    assert st == status
    expected = np.zeros(A.shape[1])
    expected[list(nonzero)] = list(nonzero.values())
    np.testing.assert_array_equal(x, expected)
    assert obj == pytest.approx(objective, rel=0, abs=1e-12)
    if status == _kernels.LP_OPTIMAL:
        ref = linprog(c, A_eq=A, b_eq=b, method="highs")
        assert ref.status == 0
        assert obj == pytest.approx(ref.fun, abs=1e-9)


def test_simplex_infeasibility_measure():
    A, b, c = _LPS["infeasible"][0]
    _, _, _, infeas = _kernels.simplex_standard(A, b, c, 1e-9, 20000)
    assert infeas == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# agreement with the element-by-element reference on random instances


def _random_smo_cases(seed):
    """(K, y, C, lam, alpha0, tol, max_iter): a hard margin, a soft box from
    zero and the same soft box from a disturbed warm start."""
    rng = np.random.default_rng([seed, 7])
    n, d = 2 * int(rng.integers(8, 16)), int(rng.integers(2, 5))
    X = rng.normal(size=(n, d))
    y = np.repeat([-1.0, 1.0], n // 2)
    rng.shuffle(y)
    sep = X.copy()
    sep[:, 0] = np.abs(sep[:, 0]) * y + 0.2 * y
    X[:, 0] += 0.8 * y
    C, lam = 1.0 / n, float(rng.uniform(0.01, 0.1))
    warm = np.zeros(n)
    _kernels.smo_box_equality(X[:, 1:] @ X[:, 1:].T, y, C, lam, warm, 1e-12, 200000)
    warm *= rng.uniform(0.5, 1.5, size=n)
    return [(sep @ sep.T, y, 1e14, 0.5, np.zeros(n), 1e-11, 60000),
            (X @ X.T, y, C, lam, np.zeros(n), 1e-12, 200000),
            (X @ X.T, y, C, lam, _fix_equality(warm, y, C), 1e-12, 200000)]


@pytest.mark.parametrize("seed", range(4))
def test_smo_matches_reference(seed):
    for K, y, C, lam, alpha0, tol, max_iter in _random_smo_cases(seed):
        alpha, alpha_ref = alpha0.copy(), alpha0.copy()
        got = _kernels.smo_box_equality(K, y, C, lam, alpha, tol, max_iter)
        want = reference_kernels.smo_box_equality(K, y, C, lam, alpha_ref, tol,
                                                  max_iter)
        assert got == want
        np.testing.assert_array_equal(alpha, alpha_ref)


def _random_lp(seed):
    """Standard-form LP whose right-hand side is made by a sparse point, so
    many basic solutions are degenerate; some draws are infeasible (negative
    point) or unbounded (negative costs)."""
    rng = np.random.default_rng([seed, 8])
    m, n = int(rng.integers(3, 12)), int(rng.integers(6, 24))
    A = np.round(rng.normal(size=(m, n)), 1)
    x0 = np.where(rng.uniform(size=n) < 0.3, rng.uniform(-0.2, 1.0, size=n), 0.0)
    c = rng.uniform(-0.3, 1.0, size=n)
    return A, A @ x0, c


@pytest.mark.parametrize("seed", range(12))
def test_simplex_matches_reference(seed):
    A, b, c = _random_lp(seed)
    st, x, obj, infeas = _kernels.simplex_standard(A, b, c, 1e-9, 5000)
    st_ref, x_ref, obj_ref, infeas_ref = reference_kernels.simplex_standard(
        A, b, c, 1e-9, 5000)
    assert (st, infeas) == (st_ref, infeas_ref)
    np.testing.assert_array_equal(x, x_ref)
    assert obj == pytest.approx(obj_ref, rel=0, abs=1e-12)
