import logging

import numpy as np
import pytest

from sepproj.errors import (
    ActuallySeparableError,
    BruteForceCapError,
    DimensionMismatchError,
    InvalidCertificateError,
)
from sepproj.separability import (
    _hard_margin_direction,
    bc_separable_bruteforce,
    check_common_point_certificate,
    common_point,
    kirchberger_reduce,
    linear_separability,
    one_infty_separable,
    one_infty_witness,
    point_in_hull,
)

from util import (
    deep_common_point,
    mutual_containment_pair,
    planted_separable_pair,
    random_intersecting_pair,
)


class TestLinearSeparability:
    def test_two_points_on_a_line(self):
        res = linear_separability([[0.0]], [[1.0]])
        assert res.separable and res.strict
        # best split is the midpoint with margin one half
        assert res.margin == pytest.approx(0.5, abs=1e-9)
        x0 = res.hyperplane.offset / res.hyperplane.normal[0]
        assert x0 == pytest.approx(0.5, abs=1e-9)

    def test_interleaved_intervals_inseparable(self):
        res = linear_separability([[0.0], [2.0]], [[1.0], [3.0]])
        assert not res.separable
        assert 1.0 - 1e-9 <= res.point[0] <= 2.0 + 1e-9
        assert res.recombination_residual([[0.0], [2.0]], [[1.0], [3.0]]) <= 1e-9

    def test_planted_margin_recovered(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            gamma = float(rng.uniform(0.05, 0.6))
            P, Q, _ = planted_separable_pair(rng, d, 8, 9, gamma)
            res = linear_separability(P, Q)
            assert res.separable and res.strict
            assert res.margin >= gamma - 1e-6

    def test_hard_margin_fallback_is_logged(self, caplog):
        P, Q, _ = planted_separable_pair(np.random.default_rng(13), 4, 15, 15, 0.2)
        with caplog.at_level(logging.DEBUG, logger="sepproj"):
            assert _hard_margin_direction(P, Q, max_iter=3) is None
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.name.startswith("sepproj")
        assert "iterations" in record.getMessage()
        assert "relative gap" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="sepproj"):
            assert _hard_margin_direction(P, Q) is not None
        assert caplog.records == []

    def test_touching_sets_not_strict_but_weakly_separable(self):
        P = [[0.0, 0.0], [-1.0, 0.5]]
        Q = [[0.0, 0.0], [1.0, 0.5]]
        strict = linear_separability(P, Q, strict=True)
        assert not strict.separable
        weak = linear_separability(P, Q, strict=False)
        assert weak.separable and not weak.strict

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linear_separability([[0.0, 1.0]], [[1.0]])

    def test_certificates_validate(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            P, Q = random_intersecting_pair(rng, 3, 8, 8)
            res = linear_separability(P, Q)
            assert not res.separable
            res.validate(P, Q)


class TestLPRegressions:
    """Inputs on which the dense-tableau simplex that preceded HiGHS gave
    wrong answers: a spurious positive slack on overlapping clouds, and LP
    failures on uniformly rescaled separable pairs."""

    @pytest.mark.parametrize("n, d", [(80, 8), (200, 10)])
    def test_overlapping_gaussian_clouds_inseparable(self, n, d):
        rng = np.random.default_rng(0)
        P = rng.normal(size=(n, d))
        Q = rng.normal(size=(n, d)) + 0.3
        res = linear_separability(P, Q)
        assert not res.separable
        res.validate(P, Q)
        check_common_point_certificate(P, Q, res.point, res.lam, res.mu)

    @pytest.mark.parametrize("seed", range(8))
    def test_rescaled_planted_pairs_strictly_separable(self, seed):
        # the planted pairs of the benchmark's certify workload, scaled by
        # 10^k for k = -6..6
        for k in range(-6, 7):
            P, Q, _ = planted_separable_pair(np.random.default_rng(seed), 3, 15, 15, 0.2)
            P, Q = P * 10.0 ** k, Q * 10.0 ** k
            res = linear_separability(P, Q)
            assert res.separable and res.strict, k
            res.validate(P, Q)


class TestPointInHull:
    def test_vertex(self):
        ok, lam = point_in_hull(np.array([1.0, 0.0]), [[1.0, 0.0], [0.0, 1.0]])
        assert ok
        assert np.allclose(lam, [1.0, 0.0], atol=1e-9)

    def test_far_outside(self):
        ok, lam = point_in_hull(np.array([50.0, 50.0]),
                                [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert not ok and lam is None

    def test_random_convex_combinations(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            P = rng.normal(size=(7, 4))
            w = rng.dirichlet(np.ones(7))
            x = w @ P
            ok, lam = point_in_hull(x, P)
            assert ok
            assert np.linalg.norm(lam @ P - x) <= 1e-9
            assert abs(lam.sum() - 1.0) <= 1e-9


class TestCommonPoint:
    def test_single_shared_point(self):
        x, lam, mu = common_point([[2.0, 3.0]], [[2.0, 3.0]])
        assert np.allclose(x, [2.0, 3.0])
        assert lam[0] == pytest.approx(1.0) and mu[0] == pytest.approx(1.0)

    def test_on_separable_input_raises(self):
        with pytest.raises(ActuallySeparableError):
            common_point([[0.0]], [[1.0]])

    def test_random_intersecting_hulls_r4(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            P, Q = random_intersecting_pair(rng, 4, 9, 10)
            x, lam, mu = common_point(P, Q)
            assert np.linalg.norm(lam @ P - x) <= 1e-8
            assert np.linalg.norm(mu @ Q - x) <= 1e-8

    def test_deep_point_is_fully_supported(self):
        rng = np.random.default_rng(15)
        P, Q = random_intersecting_pair(rng, 3, 8, 8)
        x, lam, mu, depth = deep_common_point(P, Q)
        if depth > 1e-9:
            assert lam.min() > 0 and mu.min() > 0


class TestKirchberger:
    def test_planar_witness_has_four_points(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            P, Q = random_intersecting_pair(rng, 2, 8, 8)
            x, lam, mu, depth = deep_common_point(P, Q)
            w = kirchberger_reduce(P, Q, x, lam, mu)
            assert w.total_size <= 4
            recheck = linear_separability(P[w.idx_p], Q[w.idx_q])
            assert not recheck.separable

    def test_minimal_input_returned_unchanged(self):
        P = np.array([[0.0, 0.0], [2.0, 0.0]])
        Q = np.array([[1.0, 1.0], [1.0, -1.0]])
        x, lam, mu = common_point(P, Q)
        keep = (lam.copy(), mu.copy())
        w = kirchberger_reduce(P, Q, x, lam, mu)
        assert w.total_size == 4
        assert np.allclose(w.lam, keep[0]) and np.allclose(w.mu, keep[1])

    def test_dense_certificates_in_r3(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            P, Q = random_intersecting_pair(rng, 3, 20, 20)
            x, lam, mu, depth = deep_common_point(P, Q)
            w = kirchberger_reduce(P, Q, x, lam, mu)
            assert w.total_size <= 5
            assert not linear_separability(P[w.idx_p], Q[w.idx_q]).separable

    def test_invalid_certificate_rejected(self):
        P = np.array([[0.0, 0.0], [2.0, 0.0]])
        Q = np.array([[1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(InvalidCertificateError):
            kirchberger_reduce(P, Q, np.array([1.0, 0.0]),
                               np.array([0.9, 0.2]), np.array([0.5, 0.5]))


class TestOneInfty:
    def test_disjoint_hulls(self):
        flag, p, q = one_infty_separable([[0.0, 0.0]], [[5.0, 5.0]])
        assert flag and p is None

    def test_center_in_square_only_one_direction(self):
        P = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
        Q = [[0.0, 0.0]]
        flag, _, _ = one_infty_separable(P, Q)
        assert flag

    def test_mutual_containment_detected(self):
        rng = np.random.default_rng(18)
        P, Q = mutual_containment_pair(rng, 2, 6, 6)
        flag, p_idx, q_idx = one_infty_separable(P, Q)
        assert not flag
        ok_p, _ = point_in_hull(P[p_idx], Q)
        ok_q, _ = point_in_hull(Q[q_idx], P)
        assert ok_p and ok_q

    def test_witness_one_dimensional(self):
        P = np.array([[0.0], [2.0], [0.9]])
        Q = np.array([[1.0], [-1.0], [3.0]])
        flag, p_idx, q_idx = one_infty_separable(P, Q)
        assert not flag
        ip, iq = one_infty_witness(P, Q, p_idx, q_idx)
        assert len(ip) <= 2 and len(iq) <= 2
        f2, _, _ = one_infty_separable(P[ip], Q[iq])
        assert not f2

    def test_random_witnesses_reverify(self):
        rng = np.random.default_rng(19)
        hits = 0
        for _ in range(40):
            P, Q = mutual_containment_pair(rng, 3, 7, 7)
            flag, p_idx, q_idx = one_infty_separable(P, Q)
            if flag:
                continue
            hits += 1
            ip, iq = one_infty_witness(P, Q, p_idx, q_idx)
            assert len(ip) <= 4 and len(iq) <= 4
            f2, _, _ = one_infty_separable(P[ip], Q[iq])
            assert not f2
        assert hits >= 30


class TestBCSeparability:
    def test_equivalent_to_linear_for_one_one(self):
        rng = np.random.default_rng(20)
        P, Q, _ = planted_separable_pair(rng, 2, 5, 5, 0.2)
        flag, cover = bc_separable_bruteforce(P, Q, 1, 1)
        assert flag
        assert len(cover.groups_p) == 1 and len(cover.groups_q) == 1

    def test_split_cluster_instance(self):
        # two red clusters flanking one blue cluster on a line
        P = np.array([[-2.0, 0.0], [-2.1, 0.3], [2.0, 0.0], [2.1, -0.2]])
        Q = np.array([[0.0, 0.0], [0.1, 0.1], [-0.1, 0.0]])
        assert not linear_separability(P, Q).separable
        flag12, cover = bc_separable_bruteforce(P, Q, 1, 2)
        assert flag12
        flag11, _ = bc_separable_bruteforce(P, Q, 1, 1)
        assert not flag11

    def test_role_swap_is_tried(self):
        # budgets (1, 2): P needs the 2-cover, Q the 1-cover
        P = np.array([[-2.0, 0.0], [2.0, 0.0]])
        Q = np.array([[0.0, 0.0]])
        flag, cover = bc_separable_bruteforce(P, Q, 1, 2)
        assert flag
        assert cover.roles_swapped

    def test_cap_enforced(self):
        rng = np.random.default_rng(21)
        P = rng.normal(size=(10, 2))
        Q = rng.normal(size=(10, 2))
        with pytest.raises(BruteForceCapError):
            bc_separable_bruteforce(P, Q, 1, 2)

    def test_subset_monotonicity(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            P = rng.normal(size=(5, 2))
            Q = rng.normal(size=(5, 2)) + np.array([2.5, 0.0])
            flag, _ = bc_separable_bruteforce(P, Q, 2, 2)
            if not flag:
                continue
            idx_p = rng.choice(5, size=3, replace=False)
            idx_q = rng.choice(5, size=3, replace=False)
            sub_flag, _ = bc_separable_bruteforce(P[idx_p], Q[idx_q], 2, 2)
            assert sub_flag

    def test_affine_invariance(self):
        rng = np.random.default_rng(23)
        P = rng.normal(size=(4, 2))
        Q = rng.normal(size=(4, 2))
        M = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        t = rng.normal(size=2)
        for b, c in [(1, 1), (1, 2), (2, 2)]:
            f1, _ = bc_separable_bruteforce(P, Q, b, c)
            f2, _ = bc_separable_bruteforce(P @ M.T + t, Q @ M.T + t, b, c)
            assert f1 == f2

    def test_projection_antimonotonicity(self):
        # once inseparable under the budgets, any single projection keeps it so
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(10):
            P = rng.normal(size=(4, 3))
            Q = rng.normal(size=(4, 3))
            flag, _ = bc_separable_bruteforce(P, Q, 1, 1)
            if flag:
                continue
            checked += 1
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            Pp = P - np.outer(P @ w, w)
            Qp = Q - np.outer(Q @ w, w)
            f2, _ = bc_separable_bruteforce(Pp, Qp, 1, 1)
            assert not f2
        assert checked >= 3
