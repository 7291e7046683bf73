"""General-position check: fixtures with known degeneracies, and parity with
the plain subset enumeration on random integer point sets."""
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepproj.errors import BadParamsError
from sepproj.synthesis import general_position_violations

# no three collinear in R^2; no four coplanar in R^3
G2 = [[0, 0], [4, 1], [1, 3], [3, 5], [6, 2]]
G3 = [[0, 0, 0], [3, 1, 0], [1, 4, 1], [2, 1, 5], [5, 3, 2], [1, 5, 4]]


def _mid(a, b):
    return [(x + y) / 2 for x, y in zip(a, b)]


def _on_line(a, b, t):
    return [x + t * (y - x) for x, y in zip(a, b)]


def _in_plane(a, b, c, s, t):
    return [x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c)]


# name -> (points, {subset_size: degenerate})
FIXTURES = {
    "generic-r2": (G2, {3: False, 4: False}),
    "generic-r3": (G3, {4: False, 5: False}),
    "coincident-r2": (G2 + [G2[1]], {3: True, 4: False}),
    "coincident-r3": (G3 + [G3[2]], {4: True, 5: False}),
    "three-collinear-r2": (G2 + [_mid(G2[0], G2[1])], {3: True, 4: False}),
    "three-collinear-r3": (G3 + [_mid(G3[0], G3[3])], {4: True, 5: False}),
    "four-collinear-r2": (G2 + [_on_line(G2[0], G2[1], t) for t in (-1, 2)],
                          {3: True, 4: True}),
    "four-coplanar-r3": (G3 + [_in_plane(G3[0], G3[1], G3[2], 0.25, 0.5)],
                         {4: True, 5: False}),
    "five-coplanar-r3": (G3 + [_in_plane(G3[0], G3[1], G3[2], s, t)
                               for s, t in ((0.25, 0.5), (-1, 2))],
                         {4: True, 5: True}),
    "all-in-a-plane-r3": ([[x, y, 2 * x - y + 1] for x, y in G2], {4: True, 5: True}),
    "all-on-a-line-r3": ([[1 + t, 2 * t, -3 * t] for t in range(6)], {4: True, 5: True}),
    "distinct-r1": ([[0], [1], [3], [7]], {2: False, 3: False}),
    "two-coincide-r1": ([[0], [1], [3], [1]], {2: True, 3: False}),
    "three-coincide-r1": ([[0], [2], [2], [5], [2]], {2: True, 3: True}),
    "fewer-points-than-subset-r3": (G3[:4], {5: False}),
}

CASES = [(name, s, bad) for name, (_, by_size) in FIXTURES.items()
         for s, bad in by_size.items()]


def _flagged(points, s):
    """Whether the check flags the set; every tuple it returns must be s
    distinct indices of points on one common hyperplane."""
    out = general_position_violations(points, s)
    for t in out:
        assert len(set(t)) == s and all(0 <= i < len(points) for i in t)
        sub = points[list(t)]
        assert np.linalg.matrix_rank(sub[1:] - sub[0], tol=1e-9) < points.shape[1]
    return bool(out)


@pytest.mark.parametrize("name, s, bad", CASES,
                         ids=[f"{name}-s{s}" for name, s, _ in CASES])
def test_fixture(name, s, bad):
    points = np.array(FIXTURES[name][0], dtype=float)
    assert _flagged(points, s) == bad


@pytest.mark.parametrize("factor", [1e-3, 1e3])
@pytest.mark.parametrize("s, bad", [(3, True), (4, False)])
def test_rescaled_fixture(factor, s, bad):
    points = np.array(FIXTURES["three-collinear-r2"][0], dtype=float) * factor
    assert _flagged(points, s) == bad


def test_subset_must_exceed_dimension():
    # any D points of R^D fit in a hyperplane, so smaller subsets say nothing
    with pytest.raises(BadParamsError):
        general_position_violations(np.array(G3, dtype=float), 3)


def _enumerate_violations(points, s, tol=1e-9):
    """Reference: every s-subset whose affine rank falls below min(s-1, D)."""
    arr = np.array(list(combinations(range(len(points)), s)))
    diffs = points[arr[:, 1:]] - points[arr[:, :1]]
    sv = np.linalg.svd(diffs, compute_uv=False)
    scale = max(1.0, float(np.abs(points).max()))
    bad = sv[:, min(s - 1, points.shape[1]) - 1] <= tol * scale
    return [tuple(t) for t in arr[bad]]


@st.composite
def _grid_sets(draw):
    # small integer grids: exact degeneracies are common, and every
    # non-degenerate subset is far above the rank tolerance
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(dim + 1, 8))
    coords = draw(st.lists(st.integers(-3, 3), min_size=n * dim, max_size=n * dim))
    s = draw(st.sampled_from([dim + 1, dim + 2]))
    return np.array(coords, dtype=float).reshape(n, dim), s


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_grid_sets())
def test_matches_subset_enumeration(case):
    points, s = case
    expect = bool(_enumerate_violations(points, s)) if s <= len(points) else False
    assert _flagged(points, s) == expect
