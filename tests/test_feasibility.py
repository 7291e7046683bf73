"""The kept-property feasibility oracle against LP verdicts on the projected
sides.

Projecting along w keeps a property strictly separable exactly when neither
w nor -w lies in the cone of its side differences q - p; the oracle decides
that from the cone's facets.  Each test here compares its verdict with
``max_slack_separator`` on the flat coordinates of the projected sides.
"""
import time

import numpy as np
import pytest
import scipy.spatial

from sepproj import _kernels
from sepproj.config import LP_TOL
from sepproj.constructions import gen_cube_two_maxima
from sepproj.data import LabeledPointSet
from sepproj.errors import EmptySubspaceError, NotSeparableInputError
from sepproj.geometry import OrthoBasis, flat_coordinates
from sepproj.overlap import (
    KEEP_FLOOR,
    OverlapSpec,
    maximize_overlap,
    separability_feasibility,
)
from sepproj.separability import max_slack_separator
from util import planted_instance, random_intersecting_pair

# directions whose cone separation is nearer 0 than this are left out: there
# the LP's verdict turns on its own tolerance
BOUNDARY = 1e-6


def _lp_separable(ps, i, w):
    flat = flat_coordinates(ps.points, OrthoBasis(w[None, :]))
    slack, _, _ = max_slack_separator(flat[ps.labels[i] == -1],
                                      flat[ps.labels[i] == +1])
    return slack > LP_TOL


def _directions(d, count, seed):
    W = np.random.default_rng(seed).normal(size=(count, d))
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def _assert_kept_verdicts(ps, keep, count, seed):
    """The oracle's verdict is the LP's at every direction away from the
    boundary; returns how many directions each verdict got."""
    feas = separability_feasibility(ps, keep)
    seen = {True: 0, False: 0}
    for w in _directions(ps.d, count, seed):
        separation = feas.slack(w) + KEEP_FLOOR
        if abs(separation) < BOUNDARY:
            continue
        verdict = separation > 0
        assert verdict == all(_lp_separable(ps, i, w) for i in keep), w.tolist()
        seen[verdict] += 1
    return seen


def _flat_instance(r, d=4, seed=9):
    """A planted instance in R^r placed in a generic r-dimensional affine
    subspace of R^d, so the side differences span r dimensions."""
    ps, _ = planted_instance(seed, 16, r, 2)
    rng = np.random.default_rng([seed, r])
    M = np.linalg.qr(rng.normal(size=(d, d)))[0][:r]
    return LabeledPointSet(ps.points @ M + rng.normal(size=d), ps.labels)


def test_cube_verdicts_match_the_lp():
    seen = _assert_kept_verdicts(gen_cube_two_maxima(0.2), (1,), 300, 0)
    assert min(seen.values()) >= 50


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_planted_verdicts_match_the_lp(d):
    ps, _ = planted_instance(d, 12 + 5 * d, d, 3)
    seen = _assert_kept_verdicts(ps, (1, 2), 100, d)
    assert min(seen.values()) >= 10


# four points on a line: property 0 splits them in the middle, property 1
# alternates
_LINE = LabeledPointSet(np.array([[0.0], [1.0], [3.0], [4.0]]),
                        [[-1, -1, 1, 1], [-1, 1, -1, 1]])


class TestDegenerateCones:
    """Cross-sections of fewer than two dimensions need no hull."""

    @pytest.fixture
    def no_qhull(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("qhull called on a cross-section of < 2 dimensions")

        monkeypatch.setattr(scipy.spatial, "ConvexHull", refuse)

    def test_plane(self, no_qhull):
        # d = 2: the cross-section is an interval
        ps, _ = planted_instance(2, 22, 2, 2)
        seen = _assert_kept_verdicts(ps, (1,), 200, 2)
        assert min(seen.values()) >= 20

    @pytest.mark.parametrize("r", [1, 2])
    def test_segment_and_ray_in_r4(self, no_qhull, r):
        # differences spanning r < d dimensions: ray (r = 1) or segment (r = 2)
        seen = _assert_kept_verdicts(_flat_instance(r), (1,), 200, r)
        assert seen[True] >= 100

    def test_flat_polygon_in_r4(self):
        # differences spanning 3 of 4 dimensions: qhull in the affine hull,
        # plus the hull's two complement facets
        seen = _assert_kept_verdicts(_flat_instance(3), (1,), 200, 3)
        assert seen[True] >= 100

    @pytest.mark.parametrize("r", [2, 3])
    def test_directions_inside_the_span(self, r):
        # a direction inside the span of the differences lies on the
        # complement facets, so its separation is at most rounding away from
        # 0 inside the cone, and there KEEP_FLOOR makes it infeasible
        ps = _flat_instance(r)
        span = np.linalg.svd(ps.points - ps.points.mean(axis=0))[2][:r]
        feas = separability_feasibility(ps, (1,))
        seen = {True: 0, False: 0}
        for a in np.random.default_rng(4).normal(size=(200, r)):
            w = a @ span
            w /= np.linalg.norm(w)
            separation = feas.slack(w) + KEEP_FLOOR
            if 1e-12 < abs(separation) < BOUNDARY:
                continue
            assert feas(w) == _lp_separable(ps, 1, w)
            seen[feas(w)] += 1
        assert min(seen.values()) >= 20

    def test_one_point_per_side(self, no_qhull):
        ps = LabeledPointSet(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]),
                             [[-1, 1], [-1, 1]])
        feas = separability_feasibility(ps, (1,))
        assert not feas(np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0))
        assert not feas(-np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0))
        assert _assert_kept_verdicts(ps, (1,), 100, 1)[True] >= 90

    def test_line(self, no_qhull):
        # d = 1: both sides project to one point, so even the separable
        # property 0 cannot stay separable; building the oracle says so
        # before any LP, where a climb would sample every start in vain
        start = time.perf_counter()
        with pytest.raises(EmptySubspaceError, match="line"):
            separability_feasibility(_LINE, (0,), hidden=1)
        assert time.perf_counter() - start < 0.1

    def test_line_hidden_overlap_only(self, no_qhull):
        # the projected hidden sides meet in the one point: every direction
        # is feasible, and inseparable hidden sides constrain nothing
        for hidden, slack in ((0, 1.0), (1, np.inf)):
            feas = separability_feasibility(_LINE, (), require_hidden_overlap=True,
                                            hidden=hidden)
            for w in (np.array([1.0]), np.array([-1.0])):
                assert feas.slack(w) == slack


def test_facets_factor_no_matrix_over_the_generators(monkeypatch):
    # the cross-section has |P| |Q| points; a full SVD of them would build a
    # square |P| |Q| factor (800 MB at 100 points per side)
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    ps, _ = planted_instance(5, 40, 4, 2)
    separability_feasibility(ps, (1,)).slack(np.eye(4)[0])
    assert shapes and max(rows for rows, _ in shapes) <= 3


def test_unseparable_kept_property_raises():
    # property 0 splits the points by their first coordinate; property 1's
    # hulls intersect
    P, Q = random_intersecting_pair(np.random.default_rng(3), 3, 6, 6)
    X = np.vstack([P, Q])
    ps = LabeledPointSet(X, [np.where(X[:, 0] > np.median(X[:, 0]), 1, -1),
                             [-1] * 6 + [1] * 6])
    with pytest.raises(NotSeparableInputError, match="kept property 1"):
        separability_feasibility(ps, (0, 1))


def test_slack_is_unitless():
    ps = gen_cube_two_maxima(0.2)
    moved = LabeledPointSet(1e3 * ps.points + np.array([5.0, -7.0, 2.0]),
                            ps.labels)
    feas, feas_moved = (separability_feasibility(p, (1,), True) for p in (ps, moved))
    for w in _directions(3, 50, 8):
        assert feas_moved.slack(w) == pytest.approx(feas.slack(w), abs=1e-12)


class TestHiddenOverlap:
    """With ``require_hidden_overlap`` a direction is feasible only where the
    projected hidden sides stop being strictly separable."""

    def test_verdicts_match_the_lp(self):
        ps = gen_cube_two_maxima(0.2)
        feas = separability_feasibility(ps, (), require_hidden_overlap=True)
        seen = {True: 0, False: 0}
        for w in _directions(3, 300, 5):
            slack = feas.slack(w)
            if abs(slack) < BOUNDARY:
                continue
            assert (slack > 0) == (not _lp_separable(ps, 0, w))
            seen[slack > 0] += 1
        assert min(seen.values()) >= 30

    def test_combined_with_a_kept_property(self):
        ps, _ = planted_instance(7, 30, 4, 2)
        feas = separability_feasibility(ps, (1,), require_hidden_overlap=True)
        seen = {True: 0, False: 0}
        for w in _directions(4, 300, 6):
            slack = feas.slack(w)
            if abs(slack) < BOUNDARY:
                continue
            expect = _lp_separable(ps, 1, w) and not _lp_separable(ps, 0, w)
            assert (slack > 0) == expect
            seen[slack > 0] += 1
        assert min(seen.values()) >= 10

    def test_inseparable_hidden_sides_constrain_nothing(self):
        P, Q = random_intersecting_pair(np.random.default_rng(4), 3, 5, 5)
        ps = LabeledPointSet(np.vstack([P, Q]), [[-1] * 5 + [1] * 5])
        feas = separability_feasibility(ps, (), require_hidden_overlap=True)
        for w in _directions(3, 20, 7):
            assert feas.slack(w) == np.inf


@pytest.mark.parametrize("d, seed", [(4, 2), (4, 4), (5, 2)])
def test_boundary_climb_finals_keep_both_properties(d, seed):
    # climbs that end on the boundary of the two kept cones, after steps
    # along their facets: the LP must still separate each kept property
    ps, _ = planted_instance(seed, 16 + 2 * d, d, 3)
    feas = separability_feasibility(ps, (1, 2))
    res = maximize_overlap(ps, OverlapSpec(kind="svm", lam=1.0), starts=2,
                           seed=seed, feasible=feas)
    assert min(feas.slack(w) for w, _ in res.finals) < 1e-9
    for w, _ in res.finals:
        assert feas(w)
        assert _lp_separable(ps, 1, w) and _lp_separable(ps, 2, w)


@pytest.mark.parametrize("keep, hidden", [((1, 2), False), ((), True),
                                          ((1,), True)])
def test_active_normal_sets_the_slack(keep, hidden):
    # near w the slack is the linear function a . w minus KEEP_FLOOR (a kept
    # facet) or minus nothing (the hidden one), for the unit active normal a
    ps, _ = planted_instance(4, 26, 4, 3)
    feas = separability_feasibility(ps, keep, require_hidden_overlap=hidden)
    expected = {True} if keep else set()
    if hidden:
        expected.add(False)
    kinds = set()
    for w in _directions(ps.d, 200, 8):
        s, a = feas.slack(w), feas.active_normal(w)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
        kept = abs(a @ w - KEEP_FLOOR - s) <= 1e-15
        assert kept or abs(a @ w - s) <= 1e-15
        kinds.add(kept)
    assert kinds == expected


def test_constrained_climb_runs_no_lp(monkeypatch):
    ps = gen_cube_two_maxima(0.2)
    feas = separability_feasibility(ps, (1,), require_hidden_overlap=True)

    def refuse(*args, **kwargs):
        raise AssertionError("LP solved during a constrained climb")

    monkeypatch.setattr(_kernels, "simplex_standard", refuse)
    res = maximize_overlap(ps, OverlapSpec(kind="svm", lam=10.0), starts=2,
                           seed=3, feasible=feas)
    for w, _ in res.finals:
        assert feas(w)
