import time

import numpy as np
import pytest

from sepproj.constructions import (
    FixtureSpec,
    circle_eps_max,
    gen_circle,
    gen_circle_labeled,
    gen_cube_two_maxima,
    gen_missing_label,
    gen_random_all_labels,
    generate_fixture,
    _wedge_contains,
)
from sepproj.errors import BadParamsError, DegeneratePositionError, EpsilonTooLargeError
from sepproj.separability import linear_separability, max_slack_separator


class TestMissingLabel:
    def test_small_plane_instance_shape(self):
        ps = gen_missing_label(2, 2, 0.1)
        assert ps.n == 5 and ps.d == 2 and ps.k == 2
        # two vertical pairs plus one extra point
        assert len(ps.label_tuples()) == 3

    def test_label_census(self):
        for k, d in [(2, 2), (2, 3), (3, 3), (3, 4)]:
            ps = gen_missing_label(k, d, 0.05)
            assert len(ps.label_tuples()) == 2 ** k - 1

    def test_all_properties_strictly_separable(self):
        ps = gen_missing_label(3, 3, 0.1)
        for i in range(3):
            res = linear_separability(ps.side(i, -1), ps.side(i, +1))
            assert res.separable and res.strict

    def test_hidden_gap_along_far_flat_normal(self):
        k = d = 3
        eps = 0.1
        ps = gen_missing_label(k, d, eps)
        u = np.zeros(d)
        u[: k - 1] = 1.0 / np.sqrt(k - 1)
        neg = ps.side(0, -1) @ u
        pos = ps.side(0, +1) @ u
        gap = neg.min() - pos.max()
        assert gap >= 1 - k * eps

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            gen_missing_label(1, 2, 0.1)
        with pytest.raises(BadParamsError):
            gen_missing_label(2, 2, 0.3)


class TestCircle:
    def test_wedge_census(self):
        P, Q = gen_circle(5, 0.02)
        assert len(P) == 5 and len(Q) == 5
        assert np.allclose(np.linalg.norm(P, axis=1), 1.0)
        # wedge boundary chords sit at distance sin(pi/(2n)) from the origin;
        # the inset ring is epsilon beyond that
        rho = np.sin(np.pi / 10) + 0.02
        assert np.allclose(np.linalg.norm(Q, axis=1), rho)
        for i in range(5):
            assert sum(_wedge_contains(P, i, q, 5) for q in Q) == 3

    def test_wedge_angle(self):
        n = 5
        P, _ = gen_circle(n, 0.02)
        j1, j2 = (n - 1) // 2, (n + 1) // 2
        u = P[j1] - P[0]
        v = P[j2] - P[0]
        ang = np.arccos(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert ang == pytest.approx(np.pi / n, abs=1e-12)

    def test_rotational_symmetry(self):
        n = 9
        P, Q = gen_circle(n, 0.01)
        ang = 2 * np.pi / n
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        PR = P @ R.T
        QR = Q @ R.T
        # rotation permutes each set onto itself
        for A, B in [(P, PR), (Q, QR)]:
            dists = np.linalg.norm(A[None, :, :] - B[:, None, :], axis=2)
            assert dists.min(axis=1).max() <= 1e-9

    def test_epsilon_too_large(self):
        with pytest.raises(EpsilonTooLargeError):
            gen_circle(9, 0.5)

    def test_eps_max_boundary(self):
        m = circle_eps_max(9)
        gen_circle(9, 0.9 * m)
        with pytest.raises(EpsilonTooLargeError):
            gen_circle(9, 1.1 * m)

    def test_labeled_variant(self):
        ps = gen_circle_labeled(5, 0.02)
        assert ps.n == 10 and ps.k == 1
        assert (ps.labels[0][:5] == -1).all() and (ps.labels[0][5:] == 1).all()


class TestCube:
    def test_coordinates_and_labels(self):
        ps = gen_cube_two_maxima(0.2)
        assert ps.n == 9 and ps.d == 3 and ps.k == 2
        assert np.allclose(ps.points[8], [0.8, 0.8, 1.0])
        # the two properties differ on exactly one point
        diff = np.nonzero(ps.labels[0] != ps.labels[1])[0]
        assert list(diff) == [7]
        assert np.allclose(ps.points[7], [1.0, 1.0, 1.0])

    def test_both_properties_separable(self):
        ps = gen_cube_two_maxima(0.2)
        for i in range(2):
            res = linear_separability(ps.side(i, -1), ps.side(i, +1))
            assert res.separable and res.strict


class TestRandomAllLabels:
    def test_label_census_and_margin(self):
        for seed in range(5):
            ps, planes = gen_random_all_labels(10, 4, 2, 0.2, seed)
            assert ps.uses_all_labels()
            for i, h in planes.items():
                s = h.side_values(ps.points)
                assert (np.abs(s) >= 0.2 - 1e-9).all()
                assert (np.sign(s).astype(int) == ps.labels[i]).all()

    def test_planted_margin_certified(self):
        ps, planes = gen_random_all_labels(12, 3, 2, 0.15, 7)
        for i in range(2):
            res = linear_separability(ps.side(i, -1), ps.side(i, +1))
            assert res.separable and res.margin >= 0.15 - 1e-9

    def test_determinism(self):
        a, pa = gen_random_all_labels(9, 3, 3, 0.1, 123)
        b, pb = gen_random_all_labels(9, 3, 3, 0.1, 123)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        for i in pa:
            assert np.array_equal(pa[i].normal, pb[i].normal)

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            gen_random_all_labels(3, 3, 2, 0.1, 0)  # n < 2^k
        with pytest.raises(BadParamsError):
            gen_random_all_labels(8, 2, 3, 0.1, 0)  # d < k

    def test_thirty_points_in_r5(self):
        # C(30, 5) = 142,506 hyperplanes: under the general-position cap
        ps, planes = gen_random_all_labels(30, 5, 2, 0.1, 2)
        assert ps.n == 30 and ps.uses_all_labels()

    def test_subset_cap_raises_at_once(self):
        # C(60, 5) = 5,461,512 hyperplanes exceed the general-position cap
        t0 = time.perf_counter()
        with pytest.raises(DegeneratePositionError):
            gen_random_all_labels(60, 5, 2, 0.1, 2)
        assert time.perf_counter() - t0 < 1.0


def test_fixture_dispatch():
    ps, planes, meta = generate_fixture(FixtureSpec("cube", {"epsilon": 0.2}))
    assert ps.n == 9 and planes is None and meta["generator"] == "cube"
    ps, planes, meta = generate_fixture(
        FixtureSpec("random", {"n": 8, "d": 3, "k": 2, "margin": 0.1, "seed": 3}))
    assert planes is not None
    with pytest.raises(BadParamsError):
        generate_fixture(FixtureSpec("nope", {}))
