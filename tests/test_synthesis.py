import numpy as np
import pytest

from sepproj import separability, synthesis
from sepproj.constructions import gen_missing_label, gen_random_all_labels
from sepproj.data import LabeledPointSet
from sepproj.errors import (
    DegeneratePositionError,
    EmptySubspaceError,
    NotIntersectingError,
    NotSeparableInputError,
    TooFewPointsError,
)
from sepproj.geometry import OrthoBasis, affine_rank, flat_coordinates, project_points
from sepproj.separability import (
    Hyperplane,
    check_common_point_certificate,
    linear_separability,
    one_infty_separable,
    weak_separator,
)
from sepproj.synthesis import (
    ImpossibleOutcome,
    SynthesisProblem,
    bc_predicate,
    construct_eliminating_projection,
    general_position_violations,
    linear_predicate,
    max_margin_planes,
    multi_projection_driver,
    one_infty_predicate,
    perturb_general_position,
    verify_after_projection,
)
from util import planted_instance


class TestSeparationPreserving:
    # a direction keeps every fixed hyperplane separating iff it is orthogonal
    # to each normal: projecting along it leaves every side value unchanged
    def test_no_planes_always_true(self):
        ps = LabeledPointSet(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[-1, 1]]))
        out = construct_eliminating_projection(SynthesisProblem(ps, 0))
        assert out.preserving_residual == 0.0

    def test_parallel_to_normal_false(self):
        v = np.array([[0.0, 1.0, 0.0]])
        assert np.abs(v @ v[0]).max() > 1e-10
        X = np.random.default_rng(1).normal(size=(6, 3))
        assert np.abs(project_points(X, OrthoBasis(v)) @ v[0]).max() <= 1e-12

    def test_orthogonalized_direction_true(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 5))
        for _ in range(10):
            N = rng.normal(size=(2, 5))
            w = rng.normal(size=5)
            # remove the normal components
            for row in np.linalg.qr(N.T)[0].T[:2]:
                w = w - (w @ row) * row
            w /= np.linalg.norm(w)
            assert np.abs(N @ w).max() <= 1e-9
            proj = project_points(X, OrthoBasis(w[None, :]))
            assert np.allclose(proj @ N.T, X @ N.T, atol=1e-9)


class TestConstructProjection:
    def test_random_all_label_instances(self):
        cases = 0
        for seed in range(12):
            k = 2 + seed % 2
            d = 3 + seed % 4
            ps, planes = gen_random_all_labels(2 ** k + 4, d, k, 0.15, seed)
            keep = {i: planes[i] for i in range(1, k)}
            out = construct_eliminating_projection(SynthesisProblem(ps, 0, keep))
            assert not out.impossible
            assert out.basis.count == 1
            w = out.basis.vectors[0]
            normals = np.array([keep[i].normal for i in range(1, k)])
            # (a) separation preserving
            assert np.abs(normals @ w).max() <= 1e-8
            # (b) hidden property loses strict separability (independent check)
            proj = project_points(ps.points, out.basis)
            pn = proj[ps.labels[0] == -1]
            pp = proj[ps.labels[0] == +1]
            res = linear_separability(pn, pp)
            assert not res.separable
            # (c) kept properties stay strictly separable
            for i in range(1, k):
                ri = linear_separability(proj[ps.labels[i] == -1],
                                         proj[ps.labels[i] == +1])
                assert ri.separable and ri.strict
            assert out.hidden_result.separable is False
            assert out.hidden_result.recombination_residual(pn, pp) <= 1e-7
            # (d) w lies in the span of the witness differences, and
            # projecting along it makes the witness affinely dependent
            wit = ps.points[out.witness]
            diffs = wit[1:] - wit[0]
            coef = np.linalg.lstsq(diffs.T, w, rcond=None)[0]
            scale = max(1.0, float(np.abs(wit).max()))
            assert np.linalg.norm(diffs.T @ coef - w) <= 1e-9 * scale
            assert affine_rank(proj[out.witness]) < len(out.witness) - 1
            cases += 1
        assert cases == 12

    def test_equal_dimension_collapse(self):
        for seed in range(6):
            k = d = 2 + seed % 2
            ps, planes = gen_random_all_labels(2 ** k + 3, d, k, 0.12, 100 + seed)
            keep = {i: planes[i] for i in range(1, k)}
            out = construct_eliminating_projection(SynthesisProblem(ps, 0, keep))
            assert not out.impossible
            assert not out.hidden_result.separable

    def test_single_property_collapse(self):
        P = np.array([[0.0, 0.0], [1.0, 0.0]])
        ps = LabeledPointSet(P, np.array([[-1, 1]]))
        out = construct_eliminating_projection(SynthesisProblem(ps, 0))
        assert not out.impossible
        proj = out.projected.points
        assert np.linalg.norm(proj[0] - proj[1]) <= 1e-9

    def test_missing_label_instance_reports_impossible(self):
        ps = gen_missing_label(2, 2, 0.1)
        out = construct_eliminating_projection(SynthesisProblem(ps, 0))
        assert out.impossible
        # evidence is a strict-separation certificate on the span projection
        assert out.evidence.separable and out.evidence.strict

    def test_unseparable_input_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.2, 1.0]])
        labels = np.array([[-1, -1, 1, 1], [-1, 1, -1, 1]])
        ps = LabeledPointSet(pts, labels)
        with pytest.raises(NotSeparableInputError):
            construct_eliminating_projection(SynthesisProblem(ps, 0))


class TestPerturbation:
    def _construct(self, seed, k=2, d=3):
        ps, planes = gen_random_all_labels(2 ** k + 4, d, k, 0.15, seed)
        keep = {i: planes[i] for i in range(1, k)}
        out = construct_eliminating_projection(SynthesisProblem(ps, 0, keep))
        return ps, out

    def test_removes_weak_separability_and_degeneracy(self):
        for seed in range(8):
            ps, out = self._construct(seed)
            P = ps.side(0, -1)
            Q = ps.side(0, +1)
            w = out.basis.vectors[0]
            w2, info = perturb_general_position(P, Q, w)
            assert min(np.linalg.norm(w2 - w), np.linalg.norm(w2 + w)) <= 1e-6
            basis2 = OrthoBasis(w2[None, :])
            # separability judged inside the image flat (weak separability in
            # the ambient space is vacuous for data living in a hyperplane)
            Pc = flat_coordinates(P, basis2)
            Qc = flat_coordinates(Q, basis2)
            assert weak_separator(Pc, Qc) is None
            res = linear_separability(Pc, Qc, strict=False)
            assert not res.separable
            # no d+1 projected points on a common hyperplane of the image flat
            coords = np.vstack([Pc, Qc])
            assert general_position_violations(coords, ps.d + 1) == []

    @pytest.mark.parametrize("npts, d, seed", [(12, 4, 36), (20, 5, 4)])
    def test_nearly_touching_sides_decided(self, npts, d, seed):
        # a weak-separation check inside the perturbation meets sides that
        # only just touch; posed as a pure feasibility LP, HiGHS ended it with
        # status kUnknown here
        ps, planes = gen_random_all_labels(npts, d, 2, 0.15, seed)
        out = construct_eliminating_projection(SynthesisProblem(ps, 0, {1: planes[1]}))
        P, Q = ps.side(0, -1), ps.side(0, +1)
        w2, _ = perturb_general_position(P, Q, out.basis.vectors[0])
        basis2 = OrthoBasis(w2[None, :])
        Pc, Qc = flat_coordinates(P, basis2), flat_coordinates(Q, basis2)
        assert weak_separator(Pc, Qc) is None
        res = linear_separability(Pc, Qc, strict=False)
        assert not res.separable
        res.validate(Pc, Qc)

    # w_new and info as recorded with the LPs on HiGHS, whose optimal
    # vertices choose the witness and the selected supports, and with the
    # eliminating direction taken from the witness basis; both must be
    # reproduced bit for bit.  The certificate is the Radon configuration
    # of the selected points in the image flat of w_new.
    _GOLDEN = {
        0: ([0.7123232997880062, -0.5609005790508256, -0.4218839378307438],
            {"selected_p": [0, 1], "selected_q": [0, 1],
             "delta": 1.9073486328125e-06, "distance": 5.097892123418698e-07,
             "attempts": 3,
             "certificate": {
                 "point": [-2.217029489037703, -0.4820457384365805],
                 "lam": [9.536743168018476e-07, 0.9999990463256831],
                 "mu": [0.39856748059433417, 0.6014325194056659]}}),
        1: ([-0.9568940544024195, 0.2849612703103978, 0.05613237098487847],
            {"selected_p": [0, 1], "selected_q": [0, 1],
             "delta": 1.9073486328125e-06, "distance": 5.09035430334644e-07,
             "attempts": 3,
             "certificate": {
                 "point": [-0.552244211998699, 0.038684588362464994],
                 "lam": [0.09920460954962139, 0.9007953904503786],
                 "mu": [0.9999990463256837, 9.536743163294891e-07]}}),
    }

    @pytest.mark.parametrize("seed", sorted(_GOLDEN))
    def test_perturbation_is_bit_identical(self, seed):
        ps, out = self._construct(seed)
        w2, info = perturb_general_position(ps.side(0, -1), ps.side(0, +1),
                                            out.basis.vectors[0])
        w_expect, info_expect = self._GOLDEN[seed]
        assert w2.tolist() == w_expect
        assert info == info_expect

    @staticmethod
    def _pad_reference(act_p, act_q, Pf, Qf, need):
        # the selection rule with the rank taken afresh before each candidate
        sel = (list(act_p), list(act_q))
        pool = [(1, j) for j in range(len(Qf)) if j not in sel[1]]
        pool += [(0, i) for i in range(len(Pf)) if i not in sel[0]]

        def rank():
            return affine_rank(np.vstack([Pf[sel[0]], Qf[sel[1]]]))

        for choosy in (True, False):
            for side_, idx in pool:
                if len(sel[0]) + len(sel[1]) >= need or idx in sel[side_]:
                    continue
                before = rank()
                sel[side_].append(idx)
                if choosy and rank() == before:
                    sel[side_].pop()
        if len(sel[0]) + len(sel[1]) < need:
            raise TooFewPointsError("pool exhausted")
        return sorted(sel[0]), sorted(sel[1])

    def test_pad_selection_matches_the_reference(self):
        # small integer grids: repeated and collinear points make the choosy
        # pass reject candidates between the ones it keeps
        rng = np.random.default_rng(11)
        padded = 0
        for _ in range(300):
            d = int(rng.integers(2, 6))
            Pf = rng.integers(-1, 2, size=(int(rng.integers(2, 9)), d)).astype(float)
            Qf = rng.integers(-1, 2, size=(int(rng.integers(2, 9)), d)).astype(float)
            args = ([0], [int(rng.integers(len(Qf)))], Pf, Qf, d + 1)
            try:
                expect = self._pad_reference(*args)
            except TooFewPointsError:
                with pytest.raises(TooFewPointsError):
                    synthesis._pad_selection(*args)
                continue
            assert synthesis._pad_selection(*args) == expect
            padded += len(expect[0]) + len(expect[1]) - 2 >= 2
        assert padded >= 100

    # hand-built selections of D + 2 points in R^2 that carry no certificate
    _REFUSED = {
        # all four points on the x-axis: affine rank 1 < D
        "rank-deficient": ([[0.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [3.0, 0.0]]),
        # crossing diagonals squeezed to within 1e-12 of the x-axis: the
        # null vector splits by side, but the rank is 1 by RANK_TOL
        "rank-deficient-crossing": ([[-1.0, 0.0], [1.0, 0.0]],
                                    [[0.0, -1e-12], [0.0, 1e-12]]),
        # q = -2 p0 + 1.5 p1 + 1.5 p2 lies outside the triangle: the null
        # vector is negative on a P row whichever way it is oriented
        "mixed-signs": ([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], [[3.0, 3.0]]),
        # q0 is the midpoint of p0 p1, so q1 gets coefficient zero
        "zero-coefficient": ([[0.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [1.0, 1.0]]),
    }

    @pytest.mark.parametrize("case", sorted(_REFUSED))
    def test_radon_certificate_refuses(self, case):
        Ps, Qs = (np.array(a) for a in self._REFUSED[case])
        assert synthesis._radon_certificate(Ps, Qs) is None

    def test_radon_certificate_accepts_crossing_diagonals(self):
        Ps = np.array([[-1.0, 0.0], [1.0, 0.0]])
        Qs = np.array([[0.0, -1.0], [0.0, 2.0]])
        x, lam, mu = synthesis._radon_certificate(Ps, Qs)
        assert np.all(lam > 0) and np.all(mu > 0)
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(mu, [2 / 3, 1 / 3], rtol=1e-14)
        check_common_point_certificate(Ps, Qs, x, lam, mu)

    def test_projecting_along_the_weighted_difference_certifies_the_weights(self):
        # projecting d+1 affinely independent points of R^d along
        # lam' @ P - mu' @ Q collapses both combinations onto one point, so
        # (lam', -mu') is their one affine dependence in the image
        rng = np.random.default_rng(21)
        for _ in range(500):
            d = int(rng.integers(2, 8))
            pts = rng.normal(size=(d + 1, d))
            assert affine_rank(pts) == d
            a = int(rng.integers(1, d + 1))
            P, Q = pts[:a], pts[a:]
            lam = rng.uniform(0.05, 1.0, size=a)
            mu = rng.uniform(0.05, 1.0, size=d + 1 - a)
            lam, mu = lam / lam.sum(), mu / mu.sum()
            v = lam @ P - mu @ Q
            basis = OrthoBasis((v / np.linalg.norm(v))[None, :])
            cert = synthesis._radon_certificate(flat_coordinates(P, basis),
                                                flat_coordinates(Q, basis))
            assert cert is not None
            np.testing.assert_allclose(cert[1], lam, rtol=0, atol=1e-9)
            np.testing.assert_allclose(cert[2], mu, rtol=0, atol=1e-9)

    def test_returned_certificate_revalidates_in_the_image(self):
        ps, out = self._construct(0)
        P, Q = ps.side(0, -1), ps.side(0, +1)
        w2, info = perturb_general_position(P, Q, out.basis.vectors[0])
        basis2 = OrthoBasis(w2[None, :])
        cert = info["certificate"]
        Ps = flat_coordinates(P[info["selected_p"]], basis2)
        Qs = flat_coordinates(Q[info["selected_q"]], basis2)
        assert min(cert["lam"] + cert["mu"]) > 0
        assert affine_rank(np.vstack([Ps, Qs])) == ps.d - 1
        check_common_point_certificate(Ps, Qs, np.array(cert["point"]),
                                       cert["lam"], cert["mu"], tol=1e-12)

    @pytest.mark.parametrize("case", sorted(_REFUSED))
    def test_refused_certificate_retries_then_raises(self, case, monkeypatch):
        # the first attempt that is near enough to w meets a refused selection:
        # the perturbation halves delta and is accepted one attempt later
        ps, out = self._construct(0)
        P, Q, w = ps.side(0, -1), ps.side(0, +1), out.basis.vectors[0]
        _, base = perturb_general_position(P, Q, w)
        refused = tuple(np.array(a) for a in self._REFUSED[case])
        real = synthesis._radon_certificate
        calls = []

        def refuse_first(Ps, Qs):
            calls.append(1)
            return real(*refused) if len(calls) == 1 else real(Ps, Qs)

        monkeypatch.setattr(synthesis, "_radon_certificate", refuse_first)
        _, info = perturb_general_position(P, Q, w)
        assert info["attempts"] == base["attempts"] + 1
        assert info["delta"] == base["delta"] / 2
        # refused on every attempt: a typed error
        monkeypatch.setattr(synthesis, "_radon_certificate", lambda Ps, Qs: real(*refused))
        with pytest.raises(DegeneratePositionError, match="perturbation failed"):
            perturb_general_position(P, Q, w)

    def test_failure_gives_the_last_reason(self, monkeypatch):
        # the early attempts land too far from w and the later ones are all
        # refused, so the one reason is the refused certificate
        ps, out = self._construct(0)
        P, Q, w = ps.side(0, -1), ps.side(0, +1), out.basis.vectors[0]
        monkeypatch.setattr(synthesis, "_radon_certificate", lambda Ps, Qs: None)
        with pytest.raises(DegeneratePositionError) as err:
            perturb_general_position(P, Q, w)
        assert str(err.value) == ("perturbation failed: selected points carry "
                                  "no Radon certificate")

    @pytest.mark.parametrize("n, d", [(50, 5), (100, 5), (200, 6), (400, 8)])
    def test_perturbs_beyond_the_general_position_cap(self, n, d, monkeypatch):
        # a check over all C(n, d - 1) hyperplanes of the image would exceed
        # MAX_HYPERPLANES here; the certificate looks at d + 1 points only
        ps, normals = planted_instance(1, n, d, 3)
        keep = {i: Hyperplane(normals[i], 0.0) for i in (1, 2)}
        out = construct_eliminating_projection(SynthesisProblem(ps, 0, keep))
        P, Q = ps.side(0, -1), ps.side(0, +1)

        # the hull intersection in the first image is solved before the
        # selection is padded; the retry loop after it solves no LP
        padded = []
        real_pad, real_lp = synthesis._pad_selection, separability.solve_lp

        def pad(*args):
            padded.append(True)
            return real_pad(*args)

        def lp(*args, **kwargs):
            assert not padded, "an attempt solved an LP"
            return real_lp(*args, **kwargs)

        def sweep(*args):
            raise AssertionError("the perturbation ran the general-position check")

        monkeypatch.setattr(synthesis, "_pad_selection", pad)
        monkeypatch.setattr(separability, "solve_lp", lp)
        monkeypatch.setattr(synthesis, "general_position_violations", sweep)
        w2, info = perturb_general_position(P, Q, out.basis.vectors[0])
        monkeypatch.undo()
        assert padded
        w = out.basis.vectors[0]
        assert min(np.linalg.norm(w2 - w), np.linalg.norm(w2 + w)) <= 1e-6
        basis2 = OrthoBasis(w2[None, :])
        Pc, Qc = flat_coordinates(P, basis2), flat_coordinates(Q, basis2)
        assert weak_separator(Pc, Qc) is None
        res = linear_separability(Pc, Qc, strict=False)
        assert not res.separable
        res.validate(Pc, Qc)

    def test_general_position_cap_checked_before_enumeration(self, monkeypatch):
        def enumerate_subsets(*args):
            raise AssertionError("hyperplanes enumerated before the cap check")

        monkeypatch.setattr(synthesis, "combinations", enumerate_subsets)
        points = np.random.default_rng(0).normal(size=(60, 5))
        with pytest.raises(DegeneratePositionError, match="5461512 hyperplanes"):
            general_position_violations(points, 6)

    def test_overlapping_interiors_keep_direction(self):
        rng = np.random.default_rng(5)
        P = rng.normal(size=(8, 3))
        Q = rng.normal(size=(8, 3)) * 0.8
        w = np.array([1.0, 0.0, 0.0])
        w2, info = perturb_general_position(P, Q, w)
        assert min(np.linalg.norm(w2 - w), np.linalg.norm(w2 + w)) <= 1e-6

    def test_not_intersecting_raises(self):
        P = np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.0], [0.2, 0.1, 0.3]])
        Q = P + np.array([10.0, 0.0, 0.0])
        with pytest.raises(NotIntersectingError):
            perturb_general_position(P, Q, np.array([0.0, 0.0, 1.0]))

    def test_too_few_points(self):
        P = np.array([[0.0, 0.0, 0.0]])
        Q = np.array([[0.0, 0.0, 0.0]])
        with pytest.raises(TooFewPointsError):
            perturb_general_position(P, Q, np.array([0.0, 0.0, 1.0]))

    def test_one_dimensional_data_raises_typed_error(self):
        # the projected flat is a point: no room to perturb into
        with pytest.raises(EmptySubspaceError):
            perturb_general_position([[0.], [1.]], [[0.5], [2.]], [1.])


class TestDriver:
    def test_one_infty_bound_and_verification(self):
        emitted = 0
        impossible = 0
        for seed in range(16):
            k = 2 + seed % 2
            d = 3 + seed % 3
            ps, planes = gen_random_all_labels(2 ** k + 4, d, k, 0.12, 200 + seed)
            keep = {i: planes[i] for i in range(1, k)}
            prob = SynthesisProblem(ps, 0, keep)
            out = multi_projection_driver(prob, one_infty_predicate())
            if out.impossible:
                impossible += 1
                qn, qp = out.projected_sides
                flag, _, _ = one_infty_separable(qn, qp)
                assert flag
                continue
            emitted += 1
            r = out.basis.count
            assert r <= min(k, d - k + 1)
            proj = out.projected
            flag, _, _ = one_infty_separable(proj.side(0, -1), proj.side(0, +1))
            assert not flag
            normals = np.array([keep[i].normal for i in range(1, k)])
            assert np.abs(normals @ out.basis.vectors.T).max() <= 1e-8
            for i in range(1, k):
                ri = linear_separability(proj.side(i, -1), proj.side(i, +1))
                assert ri.separable and ri.strict
        assert emitted >= 5

    def test_linear_predicate_matches_single_projection(self):
        for seed in range(6):
            ps, planes = gen_random_all_labels(8, 4, 2, 0.15, 300 + seed)
            keep = {1: planes[1]}
            prob = SynthesisProblem(ps, 0, keep)
            out = multi_projection_driver(prob, linear_predicate())
            assert not out.impossible
            assert out.basis.count <= 1
            res = linear_separability(out.projected.side(0, -1),
                                      out.projected.side(0, +1))
            assert not res.separable

    @pytest.mark.parametrize("make", [linear_predicate, one_infty_predicate],
                             ids=["linear", "1inf"])
    def test_predicate_runs_once_per_input(self, make):
        # the driver keeps the evidence of each failed holds call: no input is
        # tested twice, the witness gets the evidence of the call it follows,
        # and the outcome carries the evidence of the last one
        base = make()
        for seed in range(6):
            inputs, returned, given = [], [], []

            def holds(P, Q):
                inputs.append((P.shape, P.tobytes(), Q.shape, Q.tobytes()))
                out = base.holds(P, Q)
                returned.append(out[1])
                return out

            def witness(P, Q, evidence):
                given.append(evidence)
                return base.witness(P, Q, evidence)

            pred = synthesis.SeparabilityPredicate(base.name, holds, witness)
            ps, planes = gen_random_all_labels(8, 4, 2, 0.15, 300 + seed)
            out = multi_projection_driver(SynthesisProblem(ps, 0, {1: planes[1]}), pred)
            assert len(set(inputs)) == len(inputs)
            if out.impossible:
                assert len(inputs) == 1 and not given
                continue
            assert 2 <= len(inputs) <= 3
            assert len(given) == 1 and given[0] is returned[0]
            assert out.evidence is returned[-1]

    def test_linear_evidence_is_the_hidden_result(self, monkeypatch):
        # the failed strict test on the projected sides is the outcome's
        # hidden result: one strict test per distinct input, none repeated
        real = synthesis.linear_separability
        for seed in range(6):
            inputs = []

            def counted(P, Q, *args, **kwargs):
                inputs.append((P.shape, P.tobytes(), Q.shape, Q.tobytes()))
                return real(P, Q, *args, **kwargs)

            monkeypatch.setattr(synthesis, "linear_separability", counted)
            ps, planes = gen_random_all_labels(8, 4, 2, 0.15, 300 + seed)
            out = multi_projection_driver(SynthesisProblem(ps, 0, {1: planes[1]}),
                                          linear_predicate())
            assert not out.impossible
            assert len(inputs) == len(set(inputs)) == 2
            assert out.hidden_result is out.evidence

    def test_bc_predicate_witness_search(self):
        # planted instance: hidden property inseparable under (1,1) after the
        # span projection; witness route must confirm
        ps, planes = gen_random_all_labels(8, 3, 2, 0.15, 400)
        keep = {1: planes[1]}
        out = multi_projection_driver(SynthesisProblem(ps, 0, keep),
                                      bc_predicate(1, 1))
        assert not out.impossible
        flag, _ = __import__("sepproj.separability", fromlist=["bc_separable_bruteforce"]
                             ).bc_separable_bruteforce(
            out.projected.side(0, -1), out.projected.side(0, +1), 1, 1)
        assert not flag


@pytest.mark.parametrize("name, call, run", [
    ("orthonormalize", 2, construct_eliminating_projection),
    ("check_common_point_certificate", 1, construct_eliminating_projection),
    ("subspace_intersection", 1,
     lambda prob: multi_projection_driver(prob, one_infty_predicate())),
], ids=["witness-flat", "hidden-certificate", "projection-basis"])
def test_non_library_errors_propagate(monkeypatch, name, call, run):
    # the library's own fallbacks catch only its typed errors
    real = getattr(synthesis, name)
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(name)
        if len(calls) == call:
            raise TypeError("not a library error")
        return real(*args, **kwargs)

    monkeypatch.setattr(synthesis, name, fail_once)
    ps, planes = gen_random_all_labels(8, 3, 2, 0.15, 0)
    with pytest.raises(TypeError, match="not a library error"):
        run(SynthesisProblem(ps, 0, {1: planes[1]}))


class TestVerifyReport:
    def test_empty_basis_reports_input_state(self):
        ps, planes = gen_random_all_labels(8, 3, 2, 0.15, 11)
        rep = verify_after_projection(ps, OrthoBasis.empty(3), planes)
        for chk in rep.properties:
            assert chk.strict
            assert chk.margin >= 0.15 - 1e-9

    def test_pipeline_report(self):
        ps, planes = gen_random_all_labels(8, 4, 2, 0.15, 12)
        keep = {1: planes[1]}
        out = construct_eliminating_projection(SynthesisProblem(ps, 0, keep))
        rep = verify_after_projection(ps, out.basis, keep)
        hidden = rep.property_check(0)
        kept = rep.property_check(1)
        assert not hidden.strict
        assert kept.strict
        assert rep.preserving_residual <= 1e-8

    def test_non_preserving_direction_flagged(self):
        ps, planes = gen_random_all_labels(8, 3, 2, 0.15, 13)
        w = planes[1].normal
        rep = verify_after_projection(ps, OrthoBasis(w[None, :]), {1: planes[1]})
        assert rep.preserving_residual > 1e-10


def test_max_margin_planes_helper():
    ps, planes = gen_random_all_labels(8, 3, 2, 0.2, 14)
    computed = max_margin_planes(ps, [0, 1])
    for i in (0, 1):
        h = computed[i]
        assert h.separates(ps.side(i, -1), ps.side(i, +1), strict=True)
