"""The four workloads: each builds a fixed pool of operations from its seed.

Every planted instance is drawn once from a fixed base seed and then moved by
a rigid motion drawn from the run's seed.  Runs with different seeds thus see
different coordinates but the same geometry: drawing the geometry afresh per
seed would let the heavy tail of the hard-margin SMO iteration count decide
each run's throughput.  The climbs are translated only, and each climb
operation has a fixed start seed: the program draws start directions in
absolute coordinates, so a rotation, like a new start seed, changes where
each climb starts, which moved the svm pool's SMO iterations by 18% between
seeds and an interval operation's cost by 25-60%.

An operation is one public sepproj call.  ``call`` looks the function up on
its module at call time, so the traced run sees its wrappers; ``check``
compares the answer with an independent computation (``checks``, imported
only after set-up is timed) and raises ``checks.Mismatch``; ``quality``
scores a checked answer.  Operations that depend on an earlier answer of the
same instance (perturbation and reports after the eliminating projection)
read it from the instance's shared ``state``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
from sepproj import constructions, overlap, separability, synthesis
from sepproj.data import LabeledPointSet
from sepproj.geometry import OrthoBasis
from sepproj.separability import Hyperplane


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    quality: Callable[[object], float] | None = None


BASE_SEED = 2105_09047


def _checks():
    import checks
    return checks


def _draw(seed, stream, i, d, rotate=True):
    """(generator for the base instance, rigid motion for this seed)."""
    return (np.random.default_rng([BASE_SEED, stream, i]),
            inputs.RigidMotion(np.random.default_rng([seed, stream, i]), d, rotate))


# ---------------------------------------------------------------------------
# certify: linear_separability


# (points per side, d).  Most separable pairs share few sizes, so that the
# median latency falls inside one dense group of operations.
CERT_SEPARABLE = [(24, 4), (30, 4), (30, 5)] * 8 + [(40, 6), (60, 8)]
CERT_OVERLAP = [(20, 3), (24, 4), (30, 4)] * 2
CERT_TOUCHING = [(20, 3), (24, 4), (30, 4)]
# uniform rescalings of fixed planted pairs that break the absolute LP and
# plane tolerances; they do not depend on the seed
CERT_RESCALED = [(s, scale) for scale in (1e6, 1e-6) for s in range(8)]


def _planted_margin(P, Q, v):
    return float(min(-(P @ v).max(), (Q @ v).min()))


def _certify_op(name, P, Q, strict, planted=None):
    def call():
        return separability.linear_separability(P, Q, strict=strict)

    def check(res):
        _checks().check_separation(P, Q, res, strict)

    quality = None
    if planted is not None:
        def quality(res):
            return res.margin / planted if res.separable and res.strict else None
    return Op(name, call, check, quality)


def certify(seed):
    ops = []
    for i, (n, d) in enumerate(CERT_SEPARABLE):
        base, move = _draw(seed, 1, i, d)
        P, Q, v = inputs.planted_pair(base, d, n, n, 0.2)
        ops.append(_certify_op(f"separable-{n}x{d}-{i}", move.points(P), move.points(Q), True,
                               _planted_margin(P, Q, v)))
    for i, (n, d) in enumerate(CERT_OVERLAP):
        base, move = _draw(seed, 2, i, d)
        P, Q = inputs.overlapping_pair(base, d, n, n, 1.0)
        ops.append(_certify_op(f"overlap-{n}x{d}-{i}", move.points(P), move.points(Q), True))
    for i, (n, d) in enumerate(CERT_TOUCHING):
        base, move = _draw(seed, 3, i, d)
        P, Q, _ = inputs.touching_pair(base, d, n, n)
        ops.append(_certify_op(f"touching-{n}x{d}", move.points(P), move.points(Q), False))
    for s, scale in CERT_RESCALED:
        P, Q, v = inputs.planted_pair(np.random.default_rng(s), 3, 15, 15, 0.2)
        P, Q = P * scale, Q * scale
        ops.append(_certify_op(f"rescaled-{scale:g}-s{s}", P, Q, True,
                               _planted_margin(P, Q, v)))
    return ops


# ---------------------------------------------------------------------------
# hide: the synthesis pipeline


HIDE_PLANTED = [(12, 3, 2), (16, 4, 2), (20, 5, 2), (12, 3, 3), (24, 5, 2)] * 2  # (n, d, k)
HIDE_MISSING = [(2, 2), (2, 3), (3, 3), (3, 4)]   # (k, d) of gen_missing_label


def _hide_instance(tag, X, L, N, off):
    ps = LabeledPointSet(X, L)
    keep = {i: Hyperplane(N[i], off[i]) for i in range(1, len(N))}
    prob = synthesis.SynthesisProblem(ps, 0, keep)
    neg, pos = X[L[0] < 0], X[L[0] > 0]
    state = {}
    c = _checks

    def construct():
        out = synthesis.construct_eliminating_projection(prob)
        state["w"] = out.basis.vectors[0]
        return out

    def check_construct(out):
        c().check_projection(X, L, keep, out)
        hr = out.hidden_result
        c().expect(not hr.separable, "hidden result claims separability")
        Xp = out.projected.points
        c().check_common_point(Xp[L[0] < 0], Xp[L[0] > 0], hr.point, hr.lam, hr.mu)

    def perturb():
        return synthesis.perturb_general_position(neg, pos, state["w"])

    # the report is taken on the eliminating projection itself: on the
    # perturbed one the LP layer sometimes certifies a spurious separation
    def after():
        return synthesis.verify_after_projection(ps, OrthoBasis(state["w"][None, :]), keep)

    def check_after(rep):
        c().check_report(X, L, state["w"][None, :], keep, rep)
        c().expect(not rep.property_check(0).strict, "hidden property still strictly separable")
        for i in keep:
            c().expect(rep.property_check(i).strict, f"kept property {i} lost separability")

    def after_quality(rep):
        return float(np.mean([rep.property_check(i).margin
                              / c().max_margin(X[L[i] < 0], X[L[i] > 0]) for i in keep]))

    def driver(pred_name):
        def call():
            pred = (synthesis.linear_predicate() if pred_name == "1,1"
                    else synthesis.one_infty_predicate())
            return synthesis.multi_projection_driver(prob, pred)

        def check(out):
            if out.impossible:
                c().check_impossible(out, pred_name)
            else:
                c().check_projection(X, L, keep, out, predicate=pred_name)
        return call, check

    lin, lin_check = driver("1,1")
    inf, inf_check = driver("1,inf")
    return [
        Op(f"{tag}-construct", construct, check_construct),
        Op(f"{tag}-perturb", perturb,
           lambda out: c().check_perturbation(neg, pos, state["w"], out[0])),
        Op(f"{tag}-after", after, check_after, after_quality),
        Op(f"{tag}-driver-linear", lin, lin_check),
        Op(f"{tag}-driver-1inf", inf, inf_check),
    ]


def hide(seed):
    ops = []
    for i, (n, d, k) in enumerate(HIDE_PLANTED):
        base, move = _draw(seed, 4, i, d)
        X, L, N, off = move.instance(*inputs.planted_instance(base, n, d, k, 0.15))
        ops += _hide_instance(f"planted-{n}x{d}k{k}-{i}", X, L, N, off)
    for k, d in HIDE_MISSING:
        ps = constructions.gen_missing_label(k, d, 0.1)
        prob = synthesis.SynthesisProblem(ps, 0)

        def call(prob=prob):
            return synthesis.construct_eliminating_projection(prob)

        ops.append(Op(f"missing-label-k{k}d{d}", call, lambda out: _checks().check_impossible(out)))
    return ops


# ---------------------------------------------------------------------------
# climbs: maximize_overlap


SVM_LAM = 0.5
# (n, d, k); 3 starts, keep normals.  d - k = 1 leaves a circle of
# admissible directions; at 30-40 points the SMO solves take most of the time.
CLIMB_SVM = [(30, 3, 2), (30, 4, 3), (40, 4, 3)] * 4
# (n, d, k); 1 start, keep normals.  With d = 3 the score is minimized along
# the one remaining direction; with d = 4 over a circle of sampled directions.
CLIMB_INTERVAL = [(8, 3, 2), (10, 3, 2), (12, 3, 2)] * 2 + [(8, 4, 2)]


def _climb_op(name, X, L, normals, spec, starts, start_seed, keep=None):
    ps = LabeledPointSet(X, L)
    y = L[0].astype(float)
    feasible = overlap.separability_feasibility(ps, keep) if keep else None

    def call():
        return overlap.maximize_overlap(ps, spec, keep_normals=normals, starts=starts,
                                        seed=start_seed, feasible=feasible)

    def check(res):
        nrm = [] if normals is None else list(normals)
        _checks().check_climb(X, y, nrm, res, spec.kind, spec.lam)
        if keep:
            _checks().check_feasible(X, L, res.best, keep)

    return Op(name, call, check, lambda res: res.value)


def climb_svm(seed):
    spec = overlap.OverlapSpec(kind="svm", lam=SVM_LAM)
    ops = []
    for i, (n, d, k) in enumerate(CLIMB_SVM):
        base, move = _draw(seed, 5, i, d, rotate=False)
        X, L, N, _ = move.instance(*inputs.planted_instance(base, n, d, k, 0.15))
        ops.append(_climb_op(f"svm-{n}x{d}k{k}-{i}", X, L, N[1:], spec, 3, i))
    # the paper's cube fixture, free and under the feasibility oracle that
    # keeps its second property separable
    cube = constructions.gen_cube_two_maxima(0.2)
    cube_spec = overlap.OverlapSpec(kind="svm", lam=10.0)
    ops.append(_climb_op("svm-cube", cube.points, cube.labels, None, cube_spec, 3, 0))
    for i in range(2):
        ops.append(_climb_op(f"svm-cube-oracle-{i}", cube.points, cube.labels, None,
                             cube_spec, 1, 1 + i, keep=(1,)))
    return ops


def climb_interval(seed):
    spec = overlap.OverlapSpec(kind="interval")
    ops = []
    for i, (n, d, k) in enumerate(CLIMB_INTERVAL):
        base, move = _draw(seed, 7, i, d, rotate=False)
        X, L, N, _ = move.instance(*inputs.planted_instance(base, n, d, k, 0.15))
        ops.append(_climb_op(f"interval-{n}x{d}k{k}-{i}", X, L, N[1:], spec, 1, i))
    return ops


WORKLOADS = {"certify": certify, "hide": hide, "climb_svm": climb_svm,
             "climb_interval": climb_interval}
