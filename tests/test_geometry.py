import numpy as np
import pytest

from sepproj.errors import AllDegenerateError, DegenerateSimplexError
from sepproj.geometry import (
    Flat,
    OrthoBasis,
    affine_rank,
    barycentric_coords,
    complement_basis,
    intersect_flats,
    orthonormalize,
    project_points,
    subspace_intersection,
)


class TestOrthonormalize:
    def test_already_orthonormal(self):
        B = orthonormalize([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(B.vectors, np.eye(2))

    def test_hand_gram_schmidt(self):
        B = orthonormalize([[1.0, 0.0], [1.0, 1.0]])
        assert np.allclose(B.vectors, np.eye(2), atol=1e-12)

    def test_gram_matrix_identity_on_random_input(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            V = rng.normal(size=(5, 8))
            B = orthonormalize(V)
            assert B.count == 5
            assert np.abs(B.vectors @ B.vectors.T - np.eye(5)).max() <= 1e-10

    def test_dependent_vectors_dropped(self):
        B = orthonormalize([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert B.count == 2

    def test_all_degenerate(self):
        with pytest.raises(AllDegenerateError):
            orthonormalize([[0.0, 0.0], [1e-15, 0.0]])

    def test_span_preserved(self):
        rng = np.random.default_rng(3)
        V = rng.normal(size=(3, 6))
        B = orthonormalize(V)
        # every input vector reconstructs from the basis
        for v in V:
            r = v - B.vectors.T @ (B.vectors @ v)
            assert np.linalg.norm(r) < 1e-9


class TestProjectPoints:
    def test_axis_projection(self):
        W = OrthoBasis(np.array([[0.0, 0.0, 1.0]]))
        out = project_points([[1.0, 2.0, 3.0]], W)
        assert np.allclose(out, [[1.0, 2.0, 0.0]])

    def test_fixed_point(self):
        W = OrthoBasis(np.array([[1.0, 0.0]]))
        p = np.array([[0.0, 5.0]])
        assert np.allclose(project_points(p, W), p)

    def test_projection_commutes_with_convex_combination(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d, n, r = 6, 8, 2
            P = rng.normal(size=(n, d))
            W = orthonormalize(rng.normal(size=(r, d)))
            lam = rng.dirichlet(np.ones(n))
            x = lam @ P
            lhs = project_points(x[None, :], W)[0]
            rhs = lam @ project_points(P, W)
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_idempotence(self):
        rng = np.random.default_rng(2)
        P = rng.normal(size=(10, 5))
        W = orthonormalize(rng.normal(size=(2, 5)))
        once = project_points(P, W)
        twice = project_points(once, W)
        assert np.abs(once - twice).max() <= 1e-10

    def test_norm_nonincrease(self):
        rng = np.random.default_rng(4)
        P = rng.normal(size=(30, 4))
        W = orthonormalize(rng.normal(size=(2, 4)))
        out = project_points(P, W)
        assert (np.linalg.norm(out, axis=1) <= np.linalg.norm(P, axis=1) + 1e-12).all()

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(5)
        P = rng.normal(size=(12, 7))
        W = orthonormalize(rng.normal(size=(3, 7)))
        out = project_points(P, W)
        assert np.abs(out @ W.vectors.T).max() <= 1e-10


class TestIntersectFlats:
    def test_crossing_lines(self):
        f1 = Flat(np.array([0.0, 0.0]), OrthoBasis(np.array([[1.0, 0.0]])))
        f2 = Flat(np.array([0.0, 0.0]), OrthoBasis(np.array([[0.0, 1.0]])))
        x = intersect_flats(f1, f2)
        assert np.allclose(x, [0.0, 0.0])

    def test_parallel_lines_empty(self):
        f1 = Flat(np.array([0.0, 0.0]), OrthoBasis(np.array([[1.0, 0.0]])))
        f2 = Flat(np.array([0.0, 1.0]), OrthoBasis(np.array([[1.0, 0.0]])))
        assert intersect_flats(f1, f2) is None

    def test_identical_lines_give_flat(self):
        f1 = Flat(np.array([0.0, 0.0]), OrthoBasis(np.array([[1.0, 0.0]])))
        f2 = Flat(np.array([2.0, 0.0]), OrthoBasis(np.array([[1.0, 0.0]])))
        out = intersect_flats(f1, f2)
        assert isinstance(out, Flat)
        assert out.dim == 1

    def test_random_flats_through_known_point(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            x = rng.normal(size=4)
            D1 = orthonormalize(rng.normal(size=(2, 4)))
            D2 = orthonormalize(rng.normal(size=(2, 4)))
            f1 = Flat(x + D1.vectors.T @ rng.normal(size=2), D1)
            f2 = Flat(x + D2.vectors.T @ rng.normal(size=2), D2)
            out = intersect_flats(f1, f2)
            assert isinstance(out, np.ndarray)
            assert np.linalg.norm(out - x) <= 1e-8

    def test_point_flat_intersection_in_3d(self):
        # plane z=0 with the z axis -> origin
        plane = Flat(np.zeros(3), OrthoBasis(np.eye(3)[:2]))
        axis = Flat(np.array([0.0, 0.0, -5.0]), OrthoBasis(np.eye(3)[2:]))
        out = intersect_flats(plane, axis)
        assert np.allclose(out, np.zeros(3), atol=1e-12)


class TestBarycentric:
    def test_vertex(self):
        S = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        c = barycentric_coords(S[0], S)
        assert np.allclose(c, [1.0, 0.0, 0.0], atol=1e-12)

    def test_centroid(self):
        S = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        c = barycentric_coords(S.mean(axis=0), S)
        assert np.allclose(c, np.ones(3) / 3, atol=1e-12)

    def test_solve_and_substitute_random(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            S = rng.normal(size=(4, 3))
            x = rng.normal(size=3)
            c = barycentric_coords(x, S)
            assert abs(c.sum() - 1.0) <= 1e-10
            assert np.linalg.norm(c @ S - x) <= 1e-9

    def test_degenerate_simplex(self):
        S = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateSimplexError):
            barycentric_coords(np.array([0.0, 1.0]), S)

    def test_lower_dimensional_reference(self):
        # 3 points spanning a plane inside R^3; x on that plane
        rng = np.random.default_rng(8)
        S = rng.normal(size=(3, 3))
        w = rng.dirichlet(np.ones(3))
        x = w @ S
        c = barycentric_coords(x, S)
        assert np.linalg.norm(c @ S - x) <= 1e-9


class TestSubspaceHelpers:
    def test_complement(self):
        rng = np.random.default_rng(10)
        W = orthonormalize(rng.normal(size=(2, 5)))
        C = complement_basis(W)
        assert C.count == 3
        assert np.abs(C.vectors @ W.vectors.T).max() <= 1e-10

    def test_affine_rank(self):
        P = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert affine_rank(P) == 1

    def test_subspace_intersection(self):
        # span{e1,e2} ∩ span{e2,e3} = span{e2}
        B1 = OrthoBasis(np.eye(3)[:2])
        B2 = OrthoBasis(np.eye(3)[1:])
        I = subspace_intersection(B1, B2)
        assert I.count == 1
        assert abs(abs(I.vectors[0][1]) - 1.0) <= 1e-10
