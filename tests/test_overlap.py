import hashlib
import itertools
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from sepproj import overlap
from sepproj.data import LabeledPointSet
from sepproj.errors import BadParamsError, EmptySubspaceError
from sepproj.geometry import OrthoBasis, orthonormalize, project_points
from sepproj.overlap import (
    KEEP_FLOOR,
    OverlapSpec,
    SlackOracle,
    _SvmClimbEngine,
    f_value,
    g_interval,
    g_svm,
    maximize_overlap,
    min_overlap,
    separability_feasibility,
)
from sepproj.constructions import gen_cube_two_maxima
from util import planted_instance as _planted_instance


def _labeled(points, labels):
    return LabeledPointSet(np.asarray(points, dtype=float),
                           np.asarray(labels)[None, :])


def _svm_reference(ps, v, b, lam, hidden=0):
    """Straight transcription of the objective, kept independent on purpose."""
    total = 0.0
    y = ps.labels[hidden]
    for i in range(ps.n):
        margin = 1.0 - y[i] * (float(np.dot(v, ps.points[i])) - b)
        total += max(0.0, margin)
    return lam * float(np.dot(v, v)) + total / ps.n


class TestIntervalScore:
    def test_disjoint(self):
        ps = _labeled([[-2.0], [2.0]], [-1, 1])
        assert g_interval(ps, np.array([1.0])) == 0.0

    def test_interleaved(self):
        ps = _labeled([[0.0], [2.0], [1.0], [3.0]], [-1, -1, 1, 1])
        assert g_interval(ps, np.array([1.0])) == pytest.approx(1.0)

    def test_matches_bruteforce_recomputation(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n, d = 10, 4
            pts = rng.normal(size=(n, d))
            labels = rng.choice([-1, 1], size=n)
            labels[0], labels[1] = -1, 1
            ps = _labeled(pts, labels)
            v = rng.normal(size=d)
            v /= np.linalg.norm(v)
            sn = sorted(float(v @ p) for p, l in zip(pts, labels) if l < 0)
            sp = sorted(float(v @ p) for p, l in zip(pts, labels) if l > 0)
            expect = max(0.0, min(sn[-1], sp[-1]) - max(sn[0], sp[0]))
            assert g_interval(ps, v) == pytest.approx(expect, abs=1e-12)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(8, 3))
        labels = np.array([-1, -1, -1, 1, 1, 1, 1, -1])
        ps = _labeled(pts, labels)
        v = rng.normal(size=3)
        assert g_interval(ps, v) == g_interval(ps, -v)


class TestSvmScore:
    def test_wide_margin_tiny_lambda(self):
        ps = _labeled([[-2.0], [2.0]], [-1, 1])
        val = g_svm(ps, np.array([1.0]), 0.0, 1e-12)
        assert val == pytest.approx(1e-12, abs=1e-15)

    def test_zero_vector_all_hinges_one(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(7, 3))
        labels = rng.choice([-1, 1], size=7)
        labels[:2] = [-1, 1]
        ps = _labeled(pts, labels)
        assert g_svm(ps, np.zeros(3), 0.0, 5.0) == pytest.approx(1.0)

    def test_matches_independent_evaluator_on_cube(self):
        ps = gen_cube_two_maxima(0.2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=3)
            b = rng.normal()
            ours = g_svm(ps, v, b, 10.0)
            ref = _svm_reference(ps, v, b, 10.0)
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_convexity_probe(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(9, 3))
        labels = rng.choice([-1, 1], size=9)
        labels[:2] = [-1, 1]
        ps = _labeled(pts, labels)
        for _ in range(50):
            v1, v2 = rng.normal(size=3), rng.normal(size=3)
            b1, b2 = rng.normal(), rng.normal()
            mid = g_svm(ps, 0.5 * (v1 + v2), 0.5 * (b1 + b2), 2.0)
            avg = 0.5 * (g_svm(ps, v1, b1, 2.0) + g_svm(ps, v2, b2, 2.0))
            assert mid <= avg + 1e-9

    def test_bad_lambda(self):
        with pytest.raises(BadParamsError):
            OverlapSpec(kind="svm", lam=0.0)


class TestMinOverlap:
    def test_svm_separable_data_small_value(self):
        ps = _labeled([[-3.0, 0.0], [3.0, 0.0]], [-1, 1])
        spec = OverlapSpec(kind="svm", lam=1e-6)
        v, b, value, _ = min_overlap(ps, spec)
        assert value <= 1e-4

    def test_interval_one_dimensional_exact(self):
        ps = _labeled([[0.0], [2.0], [1.0], [3.0]], [-1, -1, 1, 1])
        spec = OverlapSpec(kind="interval")
        v, b, value, _ = min_overlap(ps, spec)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_svm_beats_random_probes(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            pts = rng.normal(size=(8, 3))
            labels = rng.choice([-1, 1], size=8)
            labels[:2] = [-1, 1]
            ps = _labeled(pts, labels)
            spec = OverlapSpec(kind="svm", lam=0.7)
            _, _, value, _ = min_overlap(ps, spec)
            probes = min(
                g_svm(ps, rng.normal(size=3), rng.normal(), 0.7)
                for _ in range(1000)
            )
            assert value <= probes + 1e-9

    def test_empty_subspace(self):
        ps = _labeled([[0.0], [1.0]], [-1, 1])
        with pytest.raises(EmptySubspaceError):
            min_overlap(ps, OverlapSpec(kind="svm", lam=1.0),
                        OrthoBasis(np.array([[1.0]])))


class TestFValue:
    def test_projectionability_identity_both_kinds(self):
        rng = np.random.default_rng(6)
        for kind in ("interval", "svm"):
            spec = OverlapSpec(kind=kind, lam=3.0)
            for _ in range(30):
                pts = rng.normal(size=(9, 4))
                labels = rng.choice([-1, 1], size=9)
                labels[:2] = [-1, 1]
                ps = _labeled(pts, labels)
                w = rng.normal(size=4)
                w /= np.linalg.norm(w)
                v = rng.normal(size=4)
                v -= (v @ w) * w
                projected = ps.with_points(
                    project_points(ps.points, OrthoBasis(w[None, :])))
                if kind == "interval":
                    a = g_interval(projected, v)
                    bval = g_interval(ps, v)
                else:
                    a = g_svm(projected, v, 0.3, 3.0)
                    bval = g_svm(ps, v, 0.3, 3.0)
                assert abs(a - bval) <= 1e-9

    def test_w_orthogonal_to_data_variation(self):
        # data confined to the xy plane; w = e_z leaves the score minimum alone
        rng = np.random.default_rng(7)
        pts = np.zeros((8, 3))
        pts[:, :2] = rng.normal(size=(8, 2))
        labels = rng.choice([-1, 1], size=8)
        labels[:2] = [-1, 1]
        ps = _labeled(pts, labels)
        spec = OverlapSpec(kind="svm", lam=1.0)
        _, _, global_min, _ = min_overlap(ps, spec)
        fw, _ = f_value(ps, np.array([0.0, 0.0, 1.0]), spec)
        assert fw == pytest.approx(global_min, abs=1e-10)

    def test_sign_symmetry(self):
        ps = gen_cube_two_maxima(0.2)
        spec = OverlapSpec(kind="svm", lam=10.0)
        w = np.array([0.3, 0.9, 1.0])
        w /= np.linalg.norm(w)
        f1, _ = f_value(ps, w, spec)
        f2, _ = f_value(ps, -w, spec)
        assert f1 == pytest.approx(f2, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        from sepproj.overlap import _SvmClimbEngine, _tangent_basis
        ps = gen_cube_two_maxima(0.2)
        spec = OverlapSpec(kind="svm", lam=10.0)
        engine = _SvmClimbEngine(ps, spec, None, 0)
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            E = _tangent_basis(w, None)
            _, alpha = engine.value(w)
            grad = engine.gradient(w, alpha)
            for e in E:
                h = 1e-6
                wp = (w + h * e) / np.linalg.norm(w + h * e)
                wm = (w - h * e) / np.linalg.norm(w - h * e)
                fp, _ = f_value(ps, wp, spec)
                fm, _ = f_value(ps, wm, spec)
                fd = (fp - fm) / (2 * h)
                assert abs(fd - grad @ e) <= 5e-5


class TestMaximize:
    def test_constant_landscape_returns_any_direction(self):
        # fully symmetric data: the overlap is direction-independent
        ps = _labeled([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                      [1, 1, -1, -1])
        spec = OverlapSpec(kind="svm", lam=1.0)
        res = maximize_overlap(ps, spec, starts=4, seed=0)
        vals = [v for _, v in res.finals]
        assert max(vals) - min(vals) <= 1e-8

    def test_monotone_trace(self):
        ps = gen_cube_two_maxima(0.2)
        spec = OverlapSpec(kind="svm", lam=10.0)
        res = maximize_overlap(ps, spec, starts=3, seed=1)
        assert all(b >= a - 1e-15 for a, b in zip(res.trace, res.trace[1:]))

    def test_single_property_single_cluster(self):
        # anisotropic two-signal family: a strict peak at the strong-signal
        # direction, so every start must end within 0.2 rad of the best
        # (w ~ -w)
        for seed in range(4):
            rng = np.random.default_rng([seed, 77])
            n = 12
            y = np.where(np.arange(n) % 2 == 0, 1, -1)
            mean = np.array([1.0, 0.4, 0.0])
            pts = np.outer(y, mean) + 0.5 * rng.normal(size=(n, 3))
            ps = _labeled(pts, y)
            spec = OverlapSpec(kind="svm", lam=0.05)
            res = maximize_overlap(ps, spec, starts=8, seed=seed)
            assert len(res.finals) == 8
            assert res.value == max(v for _, v in res.finals)
            for w, _ in res.finals:
                assert abs(w @ res.best) >= np.cos(0.2)

    def test_deterministic_in_seed(self):
        ps = gen_cube_two_maxima(0.2)
        spec = OverlapSpec(kind="svm", lam=10.0)
        r1 = maximize_overlap(ps, spec, starts=3, seed=42)
        r2 = maximize_overlap(ps, spec, starts=3, seed=42)
        assert r1.value == r2.value
        assert np.array_equal(r1.best, r2.best)

    def test_feasibility_oracle_respected(self):
        ps = gen_cube_two_maxima(0.2)
        spec = OverlapSpec(kind="svm", lam=10.0)
        feas = separability_feasibility(ps, keep=(1,), require_hidden_overlap=True)
        res = maximize_overlap(ps, spec, starts=4, seed=3, feasible=feas)
        for w, _ in res.finals:
            assert feas(w)

    def test_boolean_feasibility_rejected(self):
        ps = gen_cube_two_maxima(0.2)
        with pytest.raises(BadParamsError):
            maximize_overlap(ps, OverlapSpec(kind="svm", lam=10.0), starts=1,
                             feasible=lambda w: True)

    def test_constraint_residuals(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(10, 4))
        labels = np.vstack([rng.choice([-1, 1], size=10)])
        labels[0, :2] = [-1, 1]
        ps = LabeledPointSet(pts, labels)
        normal = rng.normal(size=4)
        normal /= np.linalg.norm(normal)
        spec = OverlapSpec(kind="svm", lam=1.0)
        res = maximize_overlap(ps, spec, keep_normals=normal[None, :],
                               starts=4, seed=4)
        for w, _ in res.finals:
            assert abs(w @ normal) <= 1e-10
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# golden interval climbs: every figure must be reproduced bit for bit.
# "reduced-1" (a one-dimensional reduced space) was recorded when the interval
# score first took its bases from one keep-normal complement per climb and a
# Householder reflector per direction; "no-normals" when its minimum over
# directions became exact; "reduced-2", "reduced-3" and "feasibility" when
# the climb took the interval gradient in closed form, which moved them in
# the last digits

# name: (seed, n, d, k, keep normals, starts, keep);
# the reduced space of the inner score has d - 1 - (keep normals) dimensions
_INTERVAL_CASES = {
    "reduced-1": (1, 8, 3, 2, 1, 2, None),
    "reduced-2": (2, 12, 4, 2, 1, 1, None),
    "reduced-3": (6, 16, 5, 2, 1, 1, None),
    "no-normals": (3, 12, 4, 1, 0, 1, None),
    "feasibility": (4, 12, 3, 2, 0, 1, (1,)),
}

# value, best, (len(trace), sha256 of the trace's float64 bytes), finals
_INTERVAL_GOLDEN = {
    "reduced-1": (
        0.7085717698868366,
        [0.6107030736060522, 0.7397499725648218, 0.28250970598984115],
        (17, "fb59fee4962a63023f073b5ae5cc698298b71e20eed436d6d075593614c24089"),
        [([0.6107030737445337, 0.739749971372715, 0.28250970881200876],
          0.7085717649776906),
         ([0.6107030736060522, 0.7397499725648218, 0.28250970598984115],
          0.7085717698868366)]),
    "reduced-2": (
        0.42556500616047505,
        [-0.5629180965673017, 0.5696512477686545, 0.21695405275897234,
         0.558168085314915],
        (18, "3b673a83373d789290b243b38a8e2dbfe890ce73351f5eddace6d369322fe2ce"),
        None),
    "reduced-3": (
        0.2111895145569971,
        [-0.4016101146611885, -0.4854872442948314, 0.6302991906587461,
         -0.44581266679299225, 0.08357899144335292],
        (14, "1281e5b6b116e2e364a5b249a35440dd050f55bd9f7214386d14d85df2a7b843"),
        None),
    "no-normals": (
        1.1102230246251565e-16,
        [-0.6100061839757498, 0.7638575467969289, -0.12496471778007319,
         0.16969950802187994],
        (1, "9374afea1ce68c7feda0c46ebd1709621d25fef97b7c334890f53f7933e8c64e"),
        None),
    "feasibility": (
        0.4930332334663979,
        [-0.5185031937279231, 0.3899680022795357, 0.760972663958471],
        (16, "57bc90ba53c864eb68a92075ad69a486096426ca31cfce9946c15b3bd393c88a"),
        None),
}

# f_value at a seeded unit w with the default spec: value and minimizing v
_F_VALUE_GOLDEN = {
    "reduced-1": (0.43859059921996507,
                  [-0.1780328425359781, 0.2169633644233244, -0.9598079002991544]),
    "reduced-2": (0.30882107368929707,
                  [0.11521278046946738, -0.4286038964354009, -0.89604834168395,
                   -0.011049187405855143]),
    "reduced-3": (0.009208256186137215,
                  [-0.39759385067098507, 0.8584370907761762, -0.13769074814615573,
                   0.12410838551031686, 0.26578799372681955]),
    "no-normals": (0.0,
                   [0.151902573382318, -0.9409012575589196, 0.1671117137560315,
                    -0.25239672511622496]),
}


def _interval_case(name):
    seed, n, d, k, n_normals, _, _ = _INTERVAL_CASES[name]
    ps, N = _planted_instance(seed, n, d, k)
    return ps, (N[1:1 + n_normals] if n_normals else None)


def _interval_climb(name):
    seed, _, _, _, _, starts, keep = _INTERVAL_CASES[name]
    ps, normals = _interval_case(name)
    spec = OverlapSpec(kind="interval")
    feas = separability_feasibility(ps, keep) if keep else None
    return maximize_overlap(ps, spec, keep_normals=normals, starts=starts,
                            seed=seed, feasible=feas)


def _f_value_direction(name):
    seed, _, d, _, _, _, _ = _INTERVAL_CASES[name]
    w = np.random.default_rng([seed, 1]).normal(size=d)
    return w / np.linalg.norm(w)


class TestIntervalGolden:
    @pytest.mark.parametrize("name", sorted(_INTERVAL_GOLDEN))
    def test_climb_is_bit_identical(self, name):
        res = _interval_climb(name)
        value, best, (trace_len, trace_sha), finals = _INTERVAL_GOLDEN[name]
        assert res.value == value
        assert res.best.tolist() == best
        assert len(res.trace) == trace_len
        digest = hashlib.sha256(np.asarray(res.trace, dtype=float).tobytes())
        assert digest.hexdigest() == trace_sha
        if finals is None:
            finals = [(best, value)]
        assert [(w.tolist(), v) for w, v in res.finals] == finals

    @pytest.mark.parametrize("name", sorted(_F_VALUE_GOLDEN))
    def test_f_value_is_bit_identical(self, name):
        ps, normals = _interval_case(name)
        w = _f_value_direction(name)
        value, (v, b, _) = f_value(ps, w, OverlapSpec(kind="interval"), normals)
        assert (value, v.tolist(), b) == (*_F_VALUE_GOLDEN[name], 0.0)

    @pytest.mark.parametrize("name", sorted(_F_VALUE_GOLDEN))
    def test_engine_matches_f_value(self, name):
        from sepproj.overlap import _IntervalClimbEngine
        seed, _, d, _, _, _, _ = _INTERVAL_CASES[name]
        ps, normals = _interval_case(name)
        spec = OverlapSpec(kind="interval")
        engine = _IntervalClimbEngine(ps, spec, normals, 0)
        rng = np.random.default_rng([seed, 2])
        for _ in range(10):
            w = rng.normal(size=d)
            w /= np.linalg.norm(w)
            assert engine.value(w)[0] == f_value(ps, w, spec, normals)[0]


# ---------------------------------------------------------------------------
# the interval score against independent exact values


def _min_support(S):
    """min over unit u of max_{s in S} u.s: the hull's smallest facet offset
    (0 for a flat hull, where the overlap is 0 anyway)."""
    if S.shape[1] == 1:
        return float(min(S.max(), -S.min()))
    try:
        return float((-ConvexHull(S).equations[:, -1]).min())
    except QhullError:
        return 0.0


def _exact_interval(ps, w, normals):
    """Exact interval score after projecting along w and the normals: the
    overlap is the smallest support function of N-N, N-P, P-N and P-P."""
    A = np.vstack([w] + ([] if normals is None else list(normals)))
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    Z = Vt[int((s > 1e-10 * s[0]).sum()):]
    y = ps.labels[0]
    sides = (ps.points[y < 0] @ Z.T, ps.points[y > 0] @ Z.T)
    diffs = [(A[:, None, :] - B[None, :, :]).reshape(-1, Z.shape[0])
             for A in sides for B in sides]
    return max(0.0, min(_min_support(S) for S in diffs))


def _assert_near_exact(ps, w, normals, reported):
    """The reported score is the exact minimum, up to rounding."""
    exact = _exact_interval(ps, w, normals)
    assert abs(reported - exact) <= 1e-9 * np.abs(ps.points).max()


class TestIntervalExact:
    @pytest.mark.parametrize("name", sorted(_INTERVAL_CASES))
    def test_climb_finals(self, name):
        ps, normals = _interval_case(name)
        for w, value in _interval_climb(name).finals:
            _assert_near_exact(ps, w, normals, value)

    @pytest.mark.parametrize("name", sorted(_F_VALUE_GOLDEN))
    def test_f_value(self, name):
        ps, normals = _interval_case(name)
        w = _f_value_direction(name)
        value, _ = f_value(ps, w, OverlapSpec(kind="interval"), normals)
        _assert_near_exact(ps, w, normals, value)


# ---------------------------------------------------------------------------
# dependent directions: the interval score runs over the complement of
# span(w, keep normals), whatever the rank of the rows that span it


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _generic_instance(d, n=10):
    rng = np.random.default_rng([d, 11])
    return _labeled(rng.normal(size=(n, d)), np.where(np.arange(n) % 2, 1, -1))


def _random_normals(d, k):
    rng = np.random.default_rng([d, k, 12])
    return np.array([_unit(rng.normal(size=d)) for _ in range(k)])


def _interval_everywhere(ps, w, normals):
    """f_value's interval score at w, after checking that the climb engine
    gives the same bits and that nothing is NaN."""
    from sepproj.overlap import _IntervalClimbEngine
    spec = OverlapSpec(kind="interval")
    value, (v, _, _) = f_value(ps, w, spec, normals)
    assert _IntervalClimbEngine(ps, spec, normals, 0).value(w)[0] == value
    assert np.isfinite(value) and np.isfinite(v).all()
    return value, v


class TestIntervalDegenerate:
    def test_w_in_span_of_normals_one_direction_left(self):
        ps = _generic_instance(3)
        N = _random_normals(3, 2)
        c = _unit(np.cross(N[0], N[1]))
        value, v = _interval_everywhere(ps, _unit(0.3 * N[0] - 0.7 * N[1]), N)
        assert value == pytest.approx(g_interval(ps, c), abs=1e-12)
        assert abs(abs(v @ c) - 1.0) <= 1e-12

    def test_w_in_span_of_normals_two_directions_left(self):
        ps = _generic_instance(4)
        N = _random_normals(4, 2)
        w = _unit(0.8 * N[0] + 0.2 * N[1])
        value, _ = _interval_everywhere(ps, w, N)
        _assert_near_exact(ps, w, N, value)

    def test_duplicated_normal(self):
        ps = _generic_instance(4)
        N = _random_normals(4, 1)
        w = _unit(np.random.default_rng(13).normal(size=4))
        once = _interval_everywhere(ps, w, N)
        twice = _interval_everywhere(ps, w, np.vstack([N, N]))
        assert once[0] == twice[0]
        assert once[1].tolist() == twice[1].tolist()

    def test_w_not_orthogonal_to_normals(self):
        ps = _generic_instance(3)
        N = _random_normals(3, 1)
        w = _unit(N[0] + np.array([0.5, -0.2, 0.1]))
        c = _unit(np.cross(w, N[0]))
        value, v = _interval_everywhere(ps, w, N)
        assert value == pytest.approx(g_interval(ps, c), abs=1e-12)
        assert abs(abs(v @ c) - 1.0) <= 1e-12
        ps4 = _generic_instance(4)
        N4 = _random_normals(4, 1)
        w4 = _unit(N4[0] + np.array([0.5, -0.2, 0.1, 0.3]))
        _assert_near_exact(ps4, w4, N4, _interval_everywhere(ps4, w4, N4)[0])

    @pytest.mark.parametrize("d, k", [(3, 2), (2, 2)])
    def test_no_direction_left(self, d, k):
        from sepproj.overlap import _IntervalClimbEngine
        ps = _generic_instance(d)
        N = _random_normals(d, k)
        w = _unit(np.random.default_rng(14).normal(size=d))
        spec = OverlapSpec(kind="interval")
        with pytest.raises(EmptySubspaceError):
            f_value(ps, w, spec, N)
        with pytest.raises(EmptySubspaceError):
            _IntervalClimbEngine(ps, spec, N, 0).value(w)


# ---------------------------------------------------------------------------
# the closed-form interval gradient, -(w.s)/h s from the attaining combination
# of differences s, against central differences of the exact score


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_interval_gradient_matches_central_differences(m, k):
    from sepproj.overlap import _IntervalClimbEngine
    d = m + 1 + k  # the score is minimized over m dimensions
    ps = _generic_instance(d, n=24)
    N = _random_normals(d, k) if k else None
    engine = _IntervalClimbEngine(ps, OverlapSpec(kind="interval"), N, 0)
    rng = np.random.default_rng([m, k, 15])
    h = 1e-6
    for _ in range(20):
        w = rng.normal(size=d)
        if k:
            w -= N[0] * (N[0] @ w)
        w = _unit(w)
        value, warm = engine.value(w)
        assert value > 0.0
        grad = engine.gradient(w, warm)
        for e in overlap._tangent_basis(w, N):
            fd = (engine.value(_unit(w + h * e))[0]
                  - engine.value(_unit(w - h * e))[0]) / (2 * h)
            assert abs(fd - grad @ e) <= 1e-7 * max(1.0, np.linalg.norm(grad))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_interval_gradient_is_zero_at_a_zero_score(d):
    # the sides lie on either side of x_0 = 0, which every projection along
    # a w orthogonal to the first axis keeps
    from sepproj.overlap import _IntervalClimbEngine
    rng = np.random.default_rng([d, 16])
    labels = np.where(np.arange(10) % 2, 1, -1)
    pts = rng.normal(size=(10, d))
    pts[:, 0] = labels * (np.abs(pts[:, 0]) + 0.5)
    engine = _IntervalClimbEngine(_labeled(pts, labels),
                                  OverlapSpec(kind="interval"), None, 0)
    for _ in range(5):
        w = rng.normal(size=d)
        w[0] = 0.0
        w = _unit(w)
        value, warm = engine.value(w)
        assert value == 0.0
        assert engine.gradient(w, warm).tolist() == [0.0] * d


# ---------------------------------------------------------------------------
# golden svm climbs: every figure must be reproduced bit for bit.  "cube-oracle"
# tests a climb blocked by the feasibility oracle, which steps along the
# oracle's active facet; "cube-oracle-compass" runs the same case under an
# oracle that reports no facet, so it probes the compass instead.  "cube-free"
# and "planted-normals" reach the ceiling 2 min(n+, n-) / n, which the climb
# reports as the value.  All four were re-recorded when the climb first
# projected its gradient onto the tangent space without a tangent basis,
# which moved them in the last digits and raised "cube-oracle"'s first start
# from 0.8833674145999013 to its second start's value, within 1e-16

# name: (spec lam, starts, seed); "cube" cases run on gen_cube_two_maxima(0.2)
_SVM_CASES = {
    "cube-free": (10.0, 3, 1),
    "cube-oracle": (10.0, 2, 3),
    "cube-oracle-compass": (10.0, 2, 3),
    "planted-normals": (0.1, 2, 13),
}

# value, best, (len(trace), sha256 of the trace's float64 bytes), finals
_SVM_GOLDEN = {
    "cube-free": (
        8 / 9,
        [0.20075433602552475, 0.1722693434666728, 0.9643759484083542],
        (5, "9c97d216ff2b849994081f1186d3812bc60930c3d26ce92b0f2b0aeaef9c40a1"),
        [([0.20075433602552475, 0.1722693434666728, 0.9643759484083542], 8 / 9),
         ([0.1913689356176095, 0.14874139217560697, 0.9701824203386934], 8 / 9),
         ([-0.1528578995856406, -0.11864602793433454, -0.981100189883618],
          8 / 9)]),
    "cube-oracle": (
        0.8833674146028684,
        [-0.6593552694521355, -0.2938927627488949, -0.692009879011509],
        (14, "482d4a91befca6cfefa0f9c6f773b895c2d9f46d588bb8655c294300ed56327b"),
        [([-0.6593552694521355, -0.2938927627488949, -0.692009879011509],
          0.8833674146028684),
         ([0.2938928492157506, 0.6593552457276651, 0.6920098648944669],
          0.8833674146028683)]),
    "cube-oracle-compass": (
        0.883053214862724,
        [0.06546621887787969, 0.7019435719451347, 0.7092174532474079],
        (11, "1940bb3e3804c532df034765bbbf39fce4855851c5fe0195319c0085b84706ba"),
        [([-0.6974239032927417, 0.16492421595095497, -0.6974237607859939],
          0.8826808100691702),
         ([0.06546621887787969, 0.7019435719451347, 0.7092174532474079],
          0.883053214862724)]),
    "planted-normals": (
        0.75,
        [-0.2741083444838123, 0.9272955556187558, 0.006480065538928343,
         -0.25484422058319817],
        (2, "dbdb9041d887ccdf06469e905eac5fd9cc733a605225b38ce4cd9d1b8735a9f9"),
        [([-0.2741083444838123, 0.9272955556187558, 0.006480065538928343,
           -0.25484422058319817], 0.75),
         ([0.39479251655743697, -0.7770909179535194, -0.12903338269907333,
           0.47288366460857717], 0.75)]),
}


@pytest.mark.parametrize("name", sorted(_SVM_GOLDEN))
def test_svm_climb_is_bit_identical(name):
    lam, starts, seed = _SVM_CASES[name]
    normals = feas = None
    if name.startswith("cube"):
        ps = gen_cube_two_maxima(0.2)
        if name != "cube-free":
            feas = separability_feasibility(ps, (1,))
        if name == "cube-oracle-compass":
            feas = SlackOracle(feas.slack)
    else:
        ps, N = _planted_instance(seed, 16, 4, 2)
        normals = N[1:]
    res = maximize_overlap(ps, OverlapSpec(kind="svm", lam=lam),
                           keep_normals=normals, starts=starts, seed=seed,
                           feasible=feas)
    value, best, (trace_len, trace_sha), finals = _SVM_GOLDEN[name]
    assert res.value == value
    assert res.best.tolist() == best
    assert len(res.trace) == trace_len
    digest = hashlib.sha256(np.asarray(res.trace, dtype=float).tobytes())
    assert digest.hexdigest() == trace_sha
    assert [(w.tolist(), v) for w, v in res.finals] == finals


# ---------------------------------------------------------------------------
# the svm ceiling: v = 0 is admissible for every w, so no direction scores
# above min_b g_svm(ps, 0, b, lam) = 2 min(n+, n-) / n


@st.composite
def _svm_sets(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(4, 12))
    coords = draw(st.lists(st.floats(-3, 3, allow_subnormal=False),
                           min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
                  .filter(lambda ls: len(set(ls)) == 2))
    k = draw(st.integers(0, d - 2))
    lam = draw(st.sampled_from([0.1, 1.0, 10.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    ps = LabeledPointSet(np.array(coords).reshape(n, d), [labels])
    return ps, k, lam, seed


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_svm_sets())
def test_svm_values_never_exceed_the_ceiling(case):
    ps, k, lam, seed = case
    rng = np.random.default_rng(seed)
    normals = None
    if k:
        normals = np.array([_unit(rng.normal(size=ps.d)) for _ in range(k)])
    spec = OverlapSpec(kind="svm", lam=lam)
    engine = _SvmClimbEngine(ps, spec, normals, 0)
    zero = np.zeros(ps.d)
    assert engine.ceiling == min(g_svm(ps, zero, -1.0, lam),
                                 g_svm(ps, zero, 1.0, lam))
    for _ in range(3):
        w = _unit(rng.normal(size=ps.d))
        assert f_value(ps, w, spec, normals)[0] <= engine.ceiling + 1e-9


def _ceiling_case():
    lam, starts, seed = _SVM_CASES["planted-normals"]
    ps, N = _planted_instance(seed, 16, 4, 2)
    return ps, N[1:], OverlapSpec(kind="svm", lam=lam), starts, seed


def test_svm_climb_stops_at_its_ceiling(monkeypatch):
    # both starts reach the ceiling within a few evaluations; without the
    # stop they go on to 584 evaluations between them, halving a step that
    # can no longer win
    calls = 0
    value = _SvmClimbEngine.value

    def counted(self, w, warm=None):
        nonlocal calls
        calls += 1
        return value(self, w, warm)

    monkeypatch.setattr(_SvmClimbEngine, "value", counted)
    ps, normals, spec, starts, seed = _ceiling_case()
    res = maximize_overlap(ps, spec, keep_normals=normals, starts=starts,
                           seed=seed)
    ceiling = _SvmClimbEngine(ps, spec, normals, 0).ceiling
    assert ceiling == 0.75
    # a value within ACCEPT_MARGIN of the ceiling is reported as the ceiling
    assert res.value == ceiling
    assert [v for _, v in res.finals] == [ceiling] * starts
    assert calls <= 10 * starts


def test_ceiling_stop_is_logged(caplog):
    ps, normals, spec, starts, seed = _ceiling_case()
    with caplog.at_level(logging.DEBUG, logger="sepproj.overlap"):
        maximize_overlap(ps, spec, keep_normals=normals, starts=starts,
                         seed=seed)
    records = [r for r in caplog.records if r.name == "sepproj.overlap"]
    assert len(records) == starts
    for record in records:
        assert record.levelno == logging.DEBUG
        assert "svm climb stopped (ceiling)" in record.getMessage()


# ---------------------------------------------------------------------------
# boundary steps: a gradient step that the oracle's penalty refuses is
# projected onto the oracle's active facet and retracted onto it

# a 30,000-direction grid over the sphere finds no feasible direction of the
# cube scoring above this under the oracle that keeps property 1 separable
_CUBE_ORACLE_GRID_MAX = 0.883353


def test_boundary_steps_reach_one_maximum(monkeypatch):
    # one climb per start seed 1 and 2; the compass alone makes 385 and 346
    # svm solves and stops at 0.883162 and 0.883281, two different points of
    # the boundary
    calls = 0
    solve = overlap._solve_svm_gram

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(overlap, "_solve_svm_gram", counted)
    ps = gen_cube_two_maxima(0.2)
    feas = separability_feasibility(ps, (1,))
    values = []
    for seed in (1, 2):
        calls = 0
        res = maximize_overlap(ps, OverlapSpec(kind="svm", lam=10.0), starts=1,
                               seed=seed, feasible=feas)
        assert calls < 150
        assert feas(res.best)
        values.append(res.value)
    assert min(values) >= _CUBE_ORACLE_GRID_MAX
    assert abs(values[0] - values[1]) <= 1e-9


@pytest.mark.parametrize("k", [0, 1])
def test_boundary_candidate_lies_on_the_facet(k):
    rng = np.random.default_rng(5 + k)
    d = 5
    N = orthonormalize(rng.normal(size=(k, d))).vectors if k else None
    K = N if k else np.zeros((0, d))
    for _ in range(20):
        w = rng.normal(size=d)
        if k:
            w -= N.T @ (N @ w)
        w /= np.linalg.norm(w)
        E = overlap._tangent_basis(w, N)
        a = _unit(rng.normal(size=d))
        gt = E.T @ (E @ rng.normal(size=d))
        x = overlap._boundary_candidate(w, gt, a, K, 0.1)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-15
        assert abs(a @ x - KEEP_FLOOR) <= 1e-15
        if k:
            assert np.abs(N @ x).max() <= 1e-15


def test_boundary_steps_are_logged(caplog):
    # an oracle built from its slack alone names no facet: its climb probes
    # the compass and takes no boundary step
    ps = gen_cube_two_maxima(0.2)
    feas = separability_feasibility(ps, (1,))
    bare = SlackOracle(feas.slack)
    assert bare.active_normal(np.array([1.0, 0.0, 0.0])) is None
    with caplog.at_level(logging.DEBUG, logger="sepproj.overlap"):
        maximize_overlap(ps, OverlapSpec(kind="svm", lam=10.0), starts=1,
                         seed=1, feasible=feas)
        maximize_overlap(ps, OverlapSpec(kind="svm", lam=10.0), starts=1,
                         seed=1, feasible=bare)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "sepproj.overlap"]
    assert len(messages) == 2
    tried = [re.search(r"(\d+) of (\d+) boundary steps accepted", m)
             for m in messages]
    accepted, attempted = (int(g) for g in tried[0].groups())
    assert 0 < accepted <= attempted
    assert tried[1].groups() == ("0", "0")


# ---------------------------------------------------------------------------
# evaluations per climb iteration: the gradient comes from the last accepted
# evaluation, and a one-dimensional tangent space with a nonzero gradient
# has no compass to probe

_STOP_LINE = re.compile(r"after (\d+) iterations, (\d+) evaluations, "
                        r"(\d+) compass probes")


def _interval_stop_lines(name, caplog):
    with caplog.at_level(logging.DEBUG, logger="sepproj.overlap"):
        _interval_climb(name)
    return [tuple(int(g) for g in _STOP_LINE.search(r.getMessage()).groups())
            for r in caplog.records if r.name == "sepproj.overlap"]


def test_one_dimensional_climbs_evaluate_at_most_twice_per_iteration(
        caplog, monkeypatch):
    # central differences and the two-point compass made 202 and 240
    # evaluations for these 43 and 53 iterations
    calls = 0
    basis = overlap._tangent_basis

    def counted(*args):
        nonlocal calls
        calls += 1
        return basis(*args)

    monkeypatch.setattr(overlap, "_tangent_basis", counted)
    lines = _interval_stop_lines("reduced-1", caplog)
    assert len(lines) == 2
    for iterations, evaluations, probes in lines:
        assert iterations > 0
        assert evaluations <= 2 * iterations
        # one start, one gradient probe per iteration, at most one compass
        # probe per iteration
        assert probes <= iterations
        assert evaluations == 1 + iterations + probes
    assert calls == 0


def test_one_dimensional_golden_climbs_probe_no_compass(caplog):
    # the one direction against the gradient can only lower the attaining
    # piece near w; probing it cost 33 and 37 evaluations that were never
    # accepted
    lines = _interval_stop_lines("reduced-1", caplog)
    assert len(lines) == 2
    for iterations, evaluations, probes in lines:
        assert probes == 0
        assert evaluations == 1 + iterations


def test_compass_probes_are_logged(caplog):
    # the "no-normals" score is 0 up to rounding around its start, so its
    # gradient is exactly 0: every iteration probes the whole compass of its
    # three-dimensional tangent space, 8 points of a circle and +-the third
    # basis vector, and nothing else
    [(iterations, evaluations, probes)] = _interval_stop_lines("no-normals",
                                                                caplog)
    assert iterations > 0
    assert probes == 10 * iterations
    assert evaluations == 1 + probes


# ---------------------------------------------------------------------------
# the exact interval minimum against a reference that needs no hull: every
# facet of N + (-P), N + (-N) and P + (-P) is spanned by edges of conv(N) and
# conv(P), so the score's minimum is attained at a normal of m - 1 independent
# same-side differences


def _interval_at(Xn, Xp, u):
    sn, sp = Xn @ u, Xp @ u
    return max(0.0, min(sn.max(), sp.max()) - max(sn.min(), sp.min()))


def _facet_reference(Xn, Xp):
    """min over unit u of the interval score, from the normals of every
    (m - 1)-subset of same-side differences.  When those differences span
    fewer than m - 1 dimensions, their orthogonal complement has a unit u
    with u.(n - p) = 0 for one pair, hence for all, and the minimum is 0."""
    m = Xn.shape[1]
    diffs = [a - b for X in (Xn, Xp) for a, b in itertools.combinations(X, 2)]
    if len(diffs) < m - 1 or np.linalg.matrix_rank(np.array(diffs)) < m - 1:
        return 0.0
    best = np.inf
    for sub in itertools.combinations(diffs, m - 1):
        _, s, Vt = np.linalg.svd(np.array(sub))
        if s[-1] > 1e-9 * s[0]:
            best = min(best, _interval_at(Xn, Xp, Vt[-1]))
    return best


@st.composite
def _interval_sides(draw):
    """Sides in R^2 or R^3 with 1-6 points each: generic floats, or small
    integers shaped into coincident sides, one line, one plane (R^3) or
    duplicated points."""
    m = draw(st.integers(2, 3))
    shape = draw(st.sampled_from(
        ["generic", "grid", "coincident", "collinear", "coplanar", "duplicated"]))
    sizes = [draw(st.integers(1, 6)) for _ in range(2)]
    small = st.integers(-3, 3)

    def grid(k, dim):
        return np.array(draw(st.lists(small, min_size=k * dim, max_size=k * dim)),
                        dtype=float).reshape(k, dim)

    if shape == "generic":
        coords = st.floats(-3, 3, allow_subnormal=False)
        sides = [np.array(draw(st.lists(coords, min_size=k * m, max_size=k * m)))
                 .reshape(k, m) for k in sizes]
    elif shape == "collinear":
        a, d = grid(2, m)
        sides = [a + grid(k, 1) * d for k in sizes]
    elif shape == "coplanar" and m == 3:
        a, b, c = grid(1, 3)[0]
        sides = [np.column_stack([X, a * X[:, 0] + b * X[:, 1] + c])
                 for X in (grid(k, 2) for k in sizes)]
    else:
        sides = [grid(k, m) for k in sizes]
    if shape == "coincident":
        sides[1] = sides[0].copy()
    elif shape == "duplicated":
        sides = [np.vstack([X, X[:draw(st.integers(1, len(X)))]]) for X in sides]
    return sides


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_interval_sides())
def test_interval_minimum_matches_facet_reference(sides):
    from sepproj.overlap import _interval_minimum
    Xn, Xp = sides
    u, value, c = _interval_minimum(Xn, Xp)
    scale = max(1.0, float(np.abs(np.vstack(sides)).max()))
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    assert value == _interval_at(Xn, Xp, u)
    assert abs(value - _facet_reference(Xn, Xp)) <= 1e-9 * scale
    # the attaining combination of differences is the foot point value u
    if c is not None:
        assert value > 0.0
        assert abs(c.sum()) <= 1e-9
        assert np.abs(c @ np.vstack(sides) - value * u).max() <= 1e-9 * scale
