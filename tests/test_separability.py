import functools
import logging

import numpy as np
import pytest

from sepproj import separability
from sepproj.config import LP_TOL
from sepproj.errors import (
    ActuallySeparableError,
    BruteForceCapError,
    DimensionMismatchError,
    InvalidCertificateError,
)
from sepproj.separability import (
    _nearest_point,
    _NearestPoint,
    bc_separable_bruteforce,
    check_common_point_certificate,
    common_point,
    kirchberger_reduce,
    linear_separability,
    max_slack_separator,
    one_infty_separable,
    one_infty_witness,
    point_in_hull,
)

from util import (
    deep_common_point,
    mutual_containment_pair,
    planted_separable_pair,
    random_intersecting_pair,
    touching_pair,
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

    def test_hard_margin_fallback_is_logged(self, caplog, monkeypatch):
        P, Q, _ = planted_separable_pair(np.random.default_rng(13), 4, 15, 15, 0.2)
        with caplog.at_level(logging.DEBUG, logger="sepproj"):
            assert linear_separability(P, Q).separable
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.name == "sepproj.separability"
        assert "by nearest point: plane after" in record.getMessage()
        caplog.clear()
        monkeypatch.setattr(separability, "_nearest_point",
                            functools.partial(_nearest_point, max_iter=3))
        with caplog.at_level(logging.DEBUG, logger="sepproj"):
            res = linear_separability(P, Q)
        assert res.separable and res.strict
        [record] = caplog.records
        assert "by LP: plane" in record.getMessage()
        assert "after 3 iterations: iteration budget spent" in record.getMessage()

    def test_common_point_decision_is_logged(self, caplog):
        P, Q = random_intersecting_pair(np.random.default_rng(9), 3, 10, 10)
        with caplog.at_level(logging.DEBUG, logger="sepproj"):
            assert not linear_separability(P, Q).separable
        [record] = caplog.records
        assert "by nearest point: common point after" in record.getMessage()

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


def _give_up(P, Q, max_iter=1000):
    return _NearestPoint(None, None, None, 0, 1.0, "given up")


def _fallback_cases():
    rng = np.random.default_rng(41)
    cases = []
    for d in (2, 3, 5):
        cases.append(planted_separable_pair(rng, d, 12, 14, 0.1)[:2])
        cases.append(random_intersecting_pair(rng, d, 12, 14))
        cases.append(touching_pair(rng, d, 12, 14))
    return cases


class TestNearestPoint:
    """The nearest-point solve decides strict separability; the LPs are only
    its fallback."""

    @pytest.mark.parametrize("seed", range(8))
    def test_planted_pairs_separable_at_every_power_of_two_scale(self, seed):
        # the planted pairs of the benchmark's certify workload, scaled by
        # 2^k for k = -40..40; the margin scales with the data
        P, Q, _ = planted_separable_pair(np.random.default_rng(seed), 3, 15, 15, 0.2)
        margin = linear_separability(P, Q).margin
        for k in range(-40, 41):
            Ps, Qs = 2.0 ** k * P, 2.0 ** k * Q
            res = linear_separability(Ps, Qs)
            assert res.separable and res.strict, k
            res.validate(Ps, Qs)
            assert res.margin == pytest.approx(2.0 ** k * margin, rel=1e-12), k

    @pytest.mark.parametrize("strict", [True, False])
    def test_lp_fallback_gives_the_same_verdicts(self, strict, monkeypatch, caplog):
        cases = _fallback_cases()
        expected = []
        for P, Q in cases:
            res = linear_separability(P, Q, strict=strict)
            expected.append((res.separable, res.strict))
        assert len(set(expected)) == (2 if strict else 3)
        monkeypatch.setattr(separability, "_nearest_point", _give_up)
        with caplog.at_level(logging.DEBUG, logger="sepproj.separability"):
            for (P, Q), verdict in zip(cases, expected):
                res = linear_separability(P, Q, strict=strict)
                assert (res.separable, res.strict) == verdict
                res.validate(P, Q)
        assert len(caplog.records) == len(cases)
        assert all("by LP" in r.getMessage() and r.getMessage().endswith("given up")
                   for r in caplog.records)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_corral_common_point_is_small_and_certified(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(5):
            P, Q = random_intersecting_pair(rng, d, 4 * d + 3, 4 * d + 5)
            near = _nearest_point(P, Q)
            assert near.direction is None and near.lam is not None
            assert (near.lam > 0).sum() <= d + 1 and (near.mu > 0).sum() <= d + 1
            x = 0.5 * (near.lam @ P + near.mu @ Q)
            check_common_point_certificate(P, Q, x, near.lam, near.mu)
            res = linear_separability(P, Q)
            assert np.array_equal(res.lam, near.lam) and np.array_equal(res.mu, near.mu)

    def test_strict_decisions_run_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP ran")

        rng = np.random.default_rng(43)
        pairs = [planted_separable_pair(rng, 4, 20, 20, 0.05)[:2] for _ in range(5)]
        pairs += [random_intersecting_pair(rng, 4, 20, 20) for _ in range(5)]
        monkeypatch.setattr(separability, "solve_lp", no_lp)
        verdicts = [linear_separability(P, Q).separable for P, Q in pairs]
        assert verdicts == [True] * 5 + [False] * 5

    def test_verdict_matches_the_max_slack_lp(self):
        # unit-scale pairs: planted pairs with small margins, and Gaussian
        # clouds shifted apart by 0 to 2.  An inseparable pair's slack is 0;
        # separable pairs whose slack lies within 1e-6 above the threshold
        # are skipped
        compared = {True: 0, False: 0}
        for seed in range(200):
            rng = np.random.default_rng([44, seed])
            d = int(rng.integers(1, 6))
            n, m = (int(k) for k in rng.integers(2, 20, size=2))
            if seed % 2:
                P = rng.normal(size=(n, d))
                Q = rng.normal(size=(m, d)) + rng.uniform(0.0, 2.0)
            else:
                margin = float(rng.uniform(1e-4, 0.3))
                P, Q, _ = planted_separable_pair(rng, d, n, m, margin)
            slack, _, _ = max_slack_separator(P, Q)
            if LP_TOL < slack <= LP_TOL + 1e-6:
                continue
            res = linear_separability(P, Q)
            assert res.separable == (slack > LP_TOL), seed
            compared[res.separable] += 1
        assert compared[True] >= 50 and compared[False] >= 50, compared


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

    def test_dense_certificate_at_realistic_size(self):
        # 400 supported points in R^6 shrink to at most d + 2 = 8
        P, Q = random_intersecting_pair(np.random.default_rng(18), 6, 200, 200)
        x, lam, mu, depth = deep_common_point(P, Q)
        assert depth > 0
        w = kirchberger_reduce(P, Q, x, lam, mu)
        assert w.total_size <= 8
        check_common_point_certificate(P[w.idx_p], Q[w.idx_q], w.point, w.lam, w.mu)
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

    def test_one_one_agrees_with_linear_separability(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            P = rng.normal(size=(int(rng.integers(1, 6)), 2))
            Q = rng.normal(size=(int(rng.integers(1, 6)), 2)) + rng.uniform(0.0, 3.0)
            flag, _ = bc_separable_bruteforce(P, Q, 1, 1)
            assert flag == linear_separability(P, Q).separable

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
