"""The strict separator is the maximum-margin plane.

The reference margin is half the distance between the two convex hulls,
computed by SLSQP on data translated to its centroid and scaled to unit
radius, independently of the program's own solvers.
"""
import numpy as np
import pytest
from scipy.optimize import minimize

from sepproj.separability import _nearest_point, linear_separability

from util import planted_separable_pair


def max_margin(P, Q):
    """Half of min |lam P - mu Q| over convex lam, mu, by SLSQP."""
    X = np.vstack([P, Q])
    c = X.mean(axis=0)
    s = float(np.abs(X - c).max()) or 1.0
    P, Q = (P - c) / s, (Q - c) / s
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
    assert res.success, res.message
    return 0.5 * s * float(np.sqrt(fun(res.x)))


def _stalling_pair():
    """A pair on which a minimum-norm-point iteration without a stall stop
    cycles at a relative gap of about 1e-13."""
    P, Q, _ = planted_separable_pair(np.random.default_rng(2087), 8, 39, 39, 0.05)
    return 100.0 * P, 100.0 * Q


_CASES = [planted_separable_pair(np.random.default_rng(s), 2 + s % 7, 8 + 5 * s,
                                 11 + 5 * s, 0.2)[:2] for s in range(12)]
_CASES.append(_stalling_pair())


@pytest.mark.parametrize("case", range(len(_CASES)))
def test_margin_is_maximal(case):
    P, Q = _CASES[case]
    ref = max_margin(P, Q)
    res = linear_separability(P, Q)
    assert res.separable and res.strict
    assert res.margin >= ref * (1.0 - 1e-9)


def test_hard_margin_direction_is_scale_invariant():
    rng = np.random.default_rng(31)
    for _ in range(20):
        P, Q, _ = planted_separable_pair(rng, 4, 15, 15, float(rng.uniform(0.01, 0.5)))
        u0 = _nearest_point(P, Q).direction
        assert u0 is not None
        for k in range(-40, 41, 5):
            u = _nearest_point(2.0 ** k * P, 2.0 ** k * Q).direction
            assert u is not None
            assert np.abs(u - u0).max() <= 1e-12


def test_hard_margin_direction_terminates_on_stalling_pair():
    P, Q = _stalling_pair()
    u = _nearest_point(P, Q).direction
    assert u is not None
    assert 0.5 * ((Q @ u).min() - (P @ u).max()) >= 8.199232279677
