import numpy as np
import pytest

from sepproj import synthesis
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
from sepproj.separability import linear_separability, one_infty_separable, weak_separator
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
    # reproduced bit for bit
    _GOLDEN = {
        0: ([0.7123236092087664, -0.560900302024024, -0.421883783704891],
            {"selected_p": [0, 1], "selected_q": [0, 1], "anchor": (1, 0),
             "delta": 3.814697265625e-06, "distance": 8.34523986221109e-07,
             "attempts": 3}),
        1: ([-0.9568940550467399, 0.2849612212908626, 0.056132608852846766],
            {"selected_p": [0, 1], "selected_q": [0, 1], "anchor": (0, 0),
             "delta": 1.9073486328125e-06, "distance": 5.468984485547182e-07,
             "attempts": 3}),
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
    def _pad_reference(act_p, act_q, Pf, Qf, need, anchor, anchor_locked):
        # the selection rule with the rank taken afresh before each candidate
        sel = (list(act_p), list(act_q))
        pool = [(1, j) for j in range(len(Qf)) if j not in sel[1]]
        pool += [(0, i) for i in range(len(Pf)) if i not in sel[0]]
        pool = [(s, i) for s, i in pool if not (anchor_locked and s == anchor[0])]

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
            args = ([0], [int(rng.integers(len(Qf)))], Pf, Qf, d + 1, (0, 0),
                    bool(rng.integers(2)))
            try:
                expect = self._pad_reference(*args)
            except TooFewPointsError:
                with pytest.raises(TooFewPointsError):
                    synthesis._pad_selection(*args)
                continue
            assert synthesis._pad_selection(*args) == expect
            padded += len(expect[0]) + len(expect[1]) - 2 >= 2
        assert padded >= 100

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
