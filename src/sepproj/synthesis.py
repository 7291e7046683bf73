"""Synthesis of separation-preserving projections.

Given a labeled point set whose properties are all strictly linearly
separable, with fixed separating hyperplanes H_2..H_k for the properties to
keep, any projection along a vector parallel to every H_i keeps those exact
separators valid.  This module constructs such vectors that simultaneously
destroy the separability of the hidden property:

* ``construct_eliminating_projection`` reduces a common hull point of the
  side-coordinate images to a small witness and projects along the one
  direction in the span of the witness differences orthogonal to every keep
  normal; no anchor point is involved and the witness collapses.
* ``perturb_general_position`` nudges that vector so the projected data is
  not even non-strictly separable: it re-weights a Kirchberger witness of
  the projected sides to strictly positive coefficients lam', mu' on d+1
  selected points and projects along lam' @ P - mu' @ Q.  That makes
  (lam', -mu') the selected points' affine dependence in the image, a Radon
  configuration that certifies the result.
* ``multi_projection_driver`` generalizes to any well-behaved separability
  predicate with a witness extractor, emitting the same kind of basis for
  its own witness (possibly several vectors), or a certified impossibility.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Callable

import numpy as np

from .config import GEOM_TOL, LP_TOL, RANK_TOL
from .data import LabeledPointSet
from .errors import (
    ActuallySeparableError,
    BadParamsError,
    DegeneratePositionError,
    EmptySubspaceError,
    InvalidCertificateError,
    NotIntersectingError,
    NotSeparableInputError,
    SepProjError,
    TooFewPointsError,
    WitnessSearchExceededError,
)
from .geometry import (
    OrthoBasis,
    affine_rank,
    complement_basis,
    flat_coordinates,
    orthonormalize,
    project_points,
    subspace_intersection,
)
from .separability import (
    Hyperplane,
    SeparationResult,
    bc_separable_bruteforce,
    check_common_point_certificate,
    common_point,
    kirchberger_reduce,
    linear_separability,
    one_infty_separable,
    one_infty_witness,
    point_in_hull,
)


@dataclass
class SynthesisProblem:
    """Input bundle: data, which property to hide, and the hyperplanes whose
    separations must survive (one per property other than ``hidden``).

    ``keep_planes`` maps property index -> Hyperplane; when omitted, maximum
    margin planes are computed at construction time.
    """

    data: LabeledPointSet
    hidden: int = 0
    keep_planes: dict[int, Hyperplane] = field(default_factory=dict)

    def keep_indices(self) -> list[int]:
        return [i for i in range(self.data.k) if i != self.hidden]


@dataclass
class ProjectionOutcome:
    basis: OrthoBasis
    projected: LabeledPointSet
    hidden_result: SeparationResult
    keep_results: dict[int, SeparationResult]
    keep_planes: dict[int, Hyperplane]
    preserving_residual: float
    witness: np.ndarray | None = None   # original indices of the collapse witness
    evidence: object = None             # predicate-specific failure evidence

    @property
    def impossible(self) -> bool:
        return False


@dataclass
class ImpossibleOutcome:
    reason: str
    evidence: object
    projected_sides: tuple[np.ndarray, np.ndarray]
    keep_planes: dict[int, Hyperplane]

    @property
    def impossible(self) -> bool:
        return True


def max_margin_planes(ps: LabeledPointSet, props) -> dict[int, Hyperplane]:
    """Maximum-margin separating hyperplane per requested property."""
    planes: dict[int, Hyperplane] = {}
    for i in props:
        res = linear_separability(ps.side(i, -1), ps.side(i, +1))
        if not res.separable or not res.strict:
            raise NotSeparableInputError(f"property {i} is not strictly separable")
        planes[i] = res.hyperplane
    return planes


def _resolve_problem(prob: SynthesisProblem):
    """Inputs, keep-normal basis, hidden side rows and their keep side values."""
    ps = prob.data
    keep = prob.keep_indices()
    planes = dict(prob.keep_planes)
    missing = [i for i in keep if i not in planes]
    if missing:
        planes.update(max_margin_planes(ps, missing))
    for i in keep:
        h = planes[i]
        if not h.separates(ps.side(i, -1), ps.side(i, +1), strict=True, tol=LP_TOL):
            raise NotSeparableInputError(
                f"supplied plane for property {i} does not strictly separate it"
            )
    if keep:
        basis_a = orthonormalize(np.array([planes[i].normal for i in keep]))
        if basis_a.count != len(keep):
            raise DegeneratePositionError("keep-plane normals are linearly dependent")
    else:
        basis_a = OrthoBasis.empty(ps.d)
    side = np.column_stack([planes[i].side_values(ps.points) for i in keep]) \
        if keep else np.zeros((ps.n, 0))
    neg_idx = ps.side_indices(prob.hidden, -1)
    pos_idx = ps.side_indices(prob.hidden, +1)
    return ps, keep, planes, basis_a, neg_idx, pos_idx, side[neg_idx], side[pos_idx]


def _keep_certificates(projected: LabeledPointSet, keep,
                       planes) -> dict[int, SeparationResult]:
    out: dict[int, SeparationResult] = {}
    for i in keep:
        h = planes[i]
        sn = h.side_values(projected.side(i, -1))
        sp = h.side_values(projected.side(i, +1))
        margin = 0.5 * float(sp.min() - sn.max())
        if margin <= LP_TOL:
            raise DegeneratePositionError(
                f"projection failed to preserve the separator of property {i}"
            )
        res = SeparationResult(True, strict=True, hyperplane=h, margin=margin)
        res.validate(projected.side(i, -1), projected.side(i, +1))
        out[i] = res
    return out


def _witness_basis(ps, star_idx, basis_a: OrthoBasis) -> OrthoBasis:
    """Basis of span(witness point differences) ∩ complement(``basis_a``):
    the directions that collapse the witness parallel to every keep plane.
    Empty for one point; AllDegenerateError when the points coincide."""
    if len(star_idx) < 2:
        return OrthoBasis.empty(ps.d)
    star_pts = ps.points[star_idx]
    return subspace_intersection(orthonormalize(star_pts[1:] - star_pts[0]),
                                 complement_basis(basis_a))


def _projection_outcome(basis, projected, hidden_result, keep, planes, basis_a,
                        witness, evidence=None) -> ProjectionOutcome:
    """Outcome of projecting along ``basis``: the caller's hidden result, a
    certificate per keep plane and the largest |normal . basis vector|."""
    residual = float(np.abs(basis_a.vectors @ basis.vectors.T).max()) \
        if basis_a.count and basis.count else 0.0
    keep_results = _keep_certificates(projected, keep, planes) if basis.count else {}
    return ProjectionOutcome(basis, projected, hidden_result, keep_results,
                             planes, residual, witness=witness, evidence=evidence)


def construct_eliminating_projection(prob: SynthesisProblem):
    """One separation-preserving unit vector whose projection makes the hidden
    property lose strict linear separability, certified on the output.

    The vector is the one direction in the span of the Kirchberger witness's
    point differences orthogonal to every keep normal; no anchor is involved,
    so it depends only on the witness set, whose certificate carries over.

    Requires all properties strictly separable.  With every label combination
    present the construction always succeeds; otherwise it can return
    ``ImpossibleOutcome``.
    """
    ps, keep, planes, basis_a, neg_idx, pos_idx, q_neg, q_pos = _resolve_problem(prob)
    hidden = prob.hidden
    hres = linear_separability(ps.side(hidden, -1), ps.side(hidden, +1))
    if not (hres.separable and hres.strict):
        raise NotSeparableInputError("hidden property is not strictly separable")
    if ps.uses_all_labels() and ps.d < ps.k:
        raise DegeneratePositionError("all labels present requires d >= k")

    if ps.k == 1:
        # no separators to keep: collapse along the hidden property's own
        # max-margin normal, which folds the two sides together
        basis = OrthoBasis(hres.hyperplane.normal[None, :])
        return _finish_single(prob, ps, keep, planes, basis_a, basis, None)

    # the hidden property must overlap after projecting onto the span of the
    # keep normals; with all labels present both hulls contain the origin
    origin = np.zeros(len(keep))
    in_neg, lam = point_in_hull(origin, q_neg)
    in_pos, mu = point_in_hull(origin, q_pos)
    if in_neg and in_pos:
        x0 = origin
    else:
        try:
            x0, lam, mu = common_point(q_neg, q_pos)
        except ActuallySeparableError:
            evidence = linear_separability(q_neg, q_pos)
            return ImpossibleOutcome(
                "hidden property stays strictly separable on the projection "
                "onto the keep-normal span",
                evidence, (q_neg, q_pos), planes,
            )
    witness = kirchberger_reduce(q_neg, q_pos, x0, lam, mu)

    star_idx = np.concatenate([neg_idx[witness.idx_p], pos_idx[witness.idx_q]])
    basis = _witness_basis(ps, star_idx, basis_a)
    if basis.count != 1:
        raise DegeneratePositionError(f"witness leaves {basis.count} directions, not one")

    lam_full = np.zeros(len(neg_idx))
    lam_full[witness.idx_p] = witness.lam
    mu_full = np.zeros(len(pos_idx))
    mu_full[witness.idx_q] = witness.mu
    return _finish_single(prob, ps, keep, planes, basis_a, basis, (lam_full, mu_full),
                          witness_idx=star_idx)


def _finish_single(prob, ps, keep, planes, basis_a, basis, cert, witness_idx=None):
    """Project along ``basis``; the hidden result is ``cert`` if it holds."""
    projected = ps.with_points(project_points(ps.points, basis))
    pn = projected.side(prob.hidden, -1)
    pp = projected.side(prob.hidden, +1)
    hidden_result = None
    if cert is not None:
        lam_full, mu_full = cert
        x = 0.5 * (lam_full @ pn + mu_full @ pp)
        try:
            check_common_point_certificate(pn, pp, x, lam_full, mu_full)
            hidden_result = SeparationResult(False, point=x, lam=lam_full, mu=mu_full)
        except InvalidCertificateError:
            hidden_result = None
    if hidden_result is None:
        hidden_result = linear_separability(pn, pp)
        if hidden_result.separable:
            raise DegeneratePositionError(
                "projected hidden property is unexpectedly still strictly separable"
            )
    return _projection_outcome(basis, projected, hidden_result, keep, planes, basis_a,
                               witness_idx)


# ---------------------------------------------------------------------------
# degeneracy-removing perturbation


MAX_HYPERPLANES = 200000
# hyperplanes per batched QR: bounds the memory and lets a hit stop early
_HYPERPLANE_CHUNK = 8192
PERTURB_EPS = 1e-6       # largest distance of a perturbed direction from +-w
PERTURB_RETRIES = 40     # perturbation scales tried


def general_position_violations(points: np.ndarray, subset_size: int):
    """Whether ``subset_size`` of the points lie on one common hyperplane.

    ``constructions.gen_random_all_labels`` is its only caller: it redraws a
    generated set until the set is in general position.  The perturbation
    does not use it; it certifies its own d+1 selected points instead.

    The points live in R^D and ``subset_size`` must be at least D + 1, so a
    subset is degenerate exactly when it fits in a hyperplane.  Its affine
    basis extends, with other points of the set, to D points spanning either
    one hyperplane or, when the whole set has affine rank below D, the whole
    set; every hyperplane through those D points then holds the subset.  So
    the check takes one hyperplane through each of the C(n, D) D-point
    subsets and counts the points within ``RANK_TOL * scale`` of it, where
    scale is max(1, the largest absolute coordinate).

    Returns ``[]`` for a set in general position, or a one-element list with
    the sorted indices of ``subset_size`` points on the first hyperplane
    found.  Raises DegeneratePositionError, before any allocation, when the
    C(n, D) hyperplanes exceed ``MAX_HYPERPLANES``.
    """
    n, dim = points.shape
    if subset_size <= dim:
        raise BadParamsError("subset size must exceed the ambient dimension")
    if subset_size > n:
        return []
    count = math.comb(n, dim)
    if count > MAX_HYPERPLANES:
        raise DegeneratePositionError(
            f"general-position check over {count} hyperplanes exceeds the cap"
        )
    tol = RANK_TOL * max(1.0, float(np.abs(points).max()))
    flat = chain.from_iterable(combinations(range(n), dim))
    while True:
        idx = np.fromiter(islice(flat, _HYPERPLANE_CHUNK * dim), dtype=np.intp)
        if idx.size == 0:
            return []
        idx = idx.reshape(-1, dim)
        base = points[idx[:, 0]]
        # the D - 1 differences to the base point are the columns of A = QR;
        # they lie in the span of Q's first D - 1 columns, so Q's last column
        # is a unit normal of a hyperplane through the D points, also when
        # they are affinely dependent (then it is one of many such normals)
        diffs = np.swapaxes(points[idx[:, 1:]] - base[:, None, :], 1, 2)
        normal = np.linalg.qr(diffs, mode="complete")[0][:, :, -1]
        dist = np.abs(normal @ points.T - np.einsum("ij,ij->i", normal, base)[:, None])
        on = dist <= tol
        hit = on.sum(axis=1) >= subset_size
        if hit.any():
            row = on[np.argmax(hit)]
            return [tuple(int(i) for i in np.flatnonzero(row)[:subset_size])]


def _pad_selection(act_p, act_q, Pf, Qf, need):
    """Extend the active index sets to exactly ``need`` points, preferring
    points that grow the affine rank of the selection."""
    sel_p = list(act_p)
    sel_q = list(act_q)

    def current_rank():
        pts = np.vstack([Pf[sel_p], Qf[sel_q]]) if sel_q else Pf[sel_p]
        return affine_rank(pts)

    pool = [(1, j) for j in range(len(Qf)) if j not in sel_q]
    pool += [(0, i) for i in range(len(Pf)) if i not in sel_p]
    # the choosy pass keeps a candidate only when it grows the rank, so the
    # rank before each candidate is the last one computed; the second pass
    # keeps every candidate and needs no rank
    rank = current_rank()
    for choosy in (True, False):
        for side_, idx in pool:
            if len(sel_p) + len(sel_q) >= need:
                break
            tgt = sel_p if side_ == 0 else sel_q
            if idx in tgt:
                continue
            tgt.append(idx)
            if choosy:
                grown = current_rank()
                if grown == rank:
                    tgt.pop()
                rank = grown
    if len(sel_p) + len(sel_q) < need:
        raise TooFewPointsError(
            f"need {need} points to span the space, usable pool exhausted"
        )
    return sorted(sel_p), sorted(sel_q)


def _radon_certificate(Ps, Qs):
    """(x, lam, mu) certifying that no hyperplane weakly separates the D+2
    points Ps ∪ Qs of R^D, or None when they carry no such certificate.

    The points must have affine rank D: the smallest singular value of
    [S^T; 1^T] must exceed ``RANK_TOL * scale``.  Its null vector is then the
    one affine dependence of the points, and it must be strictly positive on
    Ps and strictly negative on Qs; normalized per side it gives lam, mu > 0
    with lam @ Ps = mu @ Qs = x.  A plane v.y = c with Ps on one side and Qs
    on the other would give v.x <= c <= v.x, so every point, having a
    positive coefficient, would lie on it, against the affine rank.

    A zero entry of the unit null vector means the other D+1 points are
    affinely dependent, so entries at or below ``RANK_TOL`` count as zero,
    like any rank decision.  The recombination is re-validated by
    ``check_common_point_certificate`` with residual ``GEOM_TOL * scale``.
    """
    S = np.vstack([Ps, Qs])
    scale = max(1.0, float(np.abs(S).max()))
    _, s, Vt = np.linalg.svd(np.vstack([S.T, np.ones(len(S))]))
    if s[-1] <= RANK_TOL * scale:
        return None
    n = len(Ps)
    v = Vt[-1] if Vt[-1, :n].sum() > 0 else -Vt[-1]
    if v[:n].min() <= RANK_TOL or v[n:].max() >= -RANK_TOL:
        return None
    lam = v[:n] / v[:n].sum()
    mu = v[n:] / v[n:].sum()
    x = 0.5 * (lam @ Ps + mu @ Qs)
    try:
        check_common_point_certificate(Ps, Qs, x, lam, mu, tol=GEOM_TOL * scale)
    except InvalidCertificateError:
        return None
    return x, lam, mu


def perturb_general_position(P, Q, w):
    """Perturb a projection direction so the projected sets are not linearly
    separable at all, not even weakly; the returned direction carries a
    verified Radon certificate of that.

    The projected hulls must already intersect: a Kirchberger witness gives
    coefficients lam, mu with lam @ Pf = mu @ Qf in the image flat, so
    lam @ P - mu @ Q lies along w.  The witness support is padded to d+1
    points, and an attempt at scale ``delta`` mixes the coefficients toward
    uniform over the selection, lam' = (1 - delta) lam + delta / |sel_p| and
    likewise mu', which makes every one strictly positive, and projects along
    lam' @ P_sel - mu' @ Q_sel.  That collapses the two combinations onto one
    point, so (lam', -mu') is the selection's affine dependence in the new
    image flat, unique when the image has full affine rank: exactly the
    Radon configuration that ``_radon_certificate`` accepts.  The new
    direction lies within ``PERTURB_EPS`` of +-w; ``PERTURB_RETRIES``
    attempts halve delta between them.  No LP runs and no other point is
    examined, so the cost per attempt is O(d^3) whatever the set size.

    Returns (w_new, info dict).  ``info["certificate"]`` holds the point and
    the coefficients ``lam`` (over ``selected_p``) and ``mu`` (over
    ``selected_q``), in ``flat_coordinates`` under ``OrthoBasis(w_new)``.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    w = np.asarray(w, dtype=float)
    w = w / np.linalg.norm(w)
    d = P.shape[1]
    if len(P) + len(Q) < d + 1:
        raise TooFewPointsError("the two sets together must span the space")
    if d < 2:
        raise EmptySubspaceError("projecting along w leaves a point: needs d >= 2")

    basis_w = OrthoBasis(w[None, :])
    Pf = flat_coordinates(P, basis_w)
    Qf = flat_coordinates(Q, basis_w)
    try:
        x0, lam0, mu0 = common_point(Pf, Qf)
    except ActuallySeparableError as exc:
        raise NotIntersectingError("projected hulls do not intersect") from exc
    witness = kirchberger_reduce(Pf, Qf, x0, lam0, mu0)

    # lam @ Pf = mu @ Qf, so this difference of the lifted points lies along w
    x_wit = witness.lam @ P[witness.idx_p] - witness.mu @ Q[witness.idx_q]
    sel_p, sel_q = _pad_selection([int(i) for i in witness.idx_p],
                                  [int(j) for j in witness.idx_q], Pf, Qf, d + 1)
    Ps, Qs = P[sel_p], Q[sel_q]
    S = np.vstack([Ps, Qs])
    x_uni = Ps.mean(axis=0) - Qs.mean(axis=0)
    tiny = RANK_TOL * max(1.0, float(np.abs(S).max()))
    info = {"selected_p": sel_p, "selected_q": sel_q}
    reason = "no attempt came within PERTURB_EPS"
    delta = 1.0
    for attempt in range(PERTURB_RETRIES):
        x = (1.0 - delta) * x_wit + delta * x_uni
        norm = np.linalg.norm(x)
        if norm <= tiny:
            reason = "perturbed direction collapsed to zero"
            delta *= 0.5
            continue
        w_new = x / norm if x @ w >= 0 else -x / norm
        dist = np.linalg.norm(w_new - w)
        if dist > PERTURB_EPS:
            # the distance is about linear in delta: skip the halvings
            # that would still land above PERTURB_EPS
            delta *= 0.5 ** max(1, math.floor(math.log2(dist / PERTURB_EPS)))
            continue
        flat = flat_coordinates(S, OrthoBasis(w_new[None, :]))
        cert = _radon_certificate(flat[:len(sel_p)], flat[len(sel_p):])
        if cert is None:
            reason = "selected points carry no Radon certificate"
            delta *= 0.5
            continue
        point, lam_c, mu_c = cert
        info.update({"delta": delta, "distance": dist, "attempts": attempt + 1,
                     "certificate": {"point": point.tolist(), "lam": lam_c.tolist(),
                                     "mu": mu_c.tolist()}})
        return w_new, info
    raise DegeneratePositionError(f"perturbation failed: {reason}")


# ---------------------------------------------------------------------------
# generic predicate driver


@dataclass
class SeparabilityPredicate:
    """A separability decision procedure with a small-witness extractor.

    ``holds(P, Q) -> (flag, evidence)``, and for inputs where the predicate
    fails ``witness(P, Q, evidence) -> (idx_p, idx_q)``, given the evidence
    that failed ``holds`` call returned.
    """

    name: str
    holds: Callable
    witness: Callable


def one_infty_predicate() -> SeparabilityPredicate:
    def holds(P, Q):
        flag, p_idx, q_idx = one_infty_separable(P, Q)
        return flag, (p_idx, q_idx)

    def witness(P, Q, evidence):
        p_idx, q_idx = evidence
        if p_idx is None:
            raise ActuallySeparableError("predicate holds; no witness exists")
        return one_infty_witness(P, Q, p_idx, q_idx)

    return SeparabilityPredicate("1,inf", holds, witness)


BC_WITNESS_CAP = 12   # largest subset the (b, c) witness search tries


def bc_predicate(b: int, c: int) -> SeparabilityPredicate:
    """(b, c)-separability by ``bc_separable_bruteforce``.  Its witness is
    the first non-separable subset in order of size, up to
    ``BC_WITNESS_CAP`` points."""
    def holds(P, Q):
        return bc_separable_bruteforce(P, Q, b, c)

    def witness(P, Q, evidence):
        P = np.asarray(P, dtype=float)
        Q = np.asarray(Q, dtype=float)
        for total in range(2, BC_WITNESS_CAP + 1):
            for np_ in range(1, total):
                nq = total - np_
                if np_ > len(P) or nq > len(Q):
                    continue
                for ip in combinations(range(len(P)), np_):
                    for iq in combinations(range(len(Q)), nq):
                        flag, _ = bc_separable_bruteforce(
                            P[list(ip)], Q[list(iq)], b, c)
                        if not flag:
                            return np.array(ip), np.array(iq)
        raise WitnessSearchExceededError(
            f"no non-separable subset of at most {BC_WITNESS_CAP} points found"
        )

    return SeparabilityPredicate(f"{b},{c}", holds, witness)


def linear_predicate() -> SeparabilityPredicate:
    def holds(P, Q):
        res = linear_separability(P, Q)
        return (res.separable and res.strict), res

    def witness(P, Q, evidence):
        # the failed strict test's certificate is a common hull point
        wit = kirchberger_reduce(P, Q, evidence.point, evidence.lam, evidence.mu)
        return wit.idx_p, wit.idx_q

    return SeparabilityPredicate("1,1", holds, witness)


def multi_projection_driver(prob: SynthesisProblem,
                            predicate: SeparabilityPredicate):
    """Eliminate a well-behaved separability predicate for the hidden property
    with few separation-preserving projections, or certify impossibility.

    If the predicate survives the full orthogonal projection onto the span of
    the keep normals, no sequence of separation-preserving projections can
    remove it and an ImpossibleOutcome carries the evidence.  Otherwise a
    failure witness is extracted there; projecting out the witness directions
    orthogonal to the span transfers the failure to the projected data.  The
    emitted basis size never exceeds min(|witness| - k, d - k + 1).
    """
    ps, keep, planes, basis_a, neg_idx, pos_idx, q_neg, q_pos = _resolve_problem(prob)
    hidden = prob.hidden

    flag, evidence = predicate.holds(q_neg, q_pos)
    if flag:
        return ImpossibleOutcome(
            f"predicate {predicate.name} holds on the projection onto the "
            "keep-normal span; separation-preserving projections cannot "
            "eliminate it",
            evidence, (q_neg, q_pos), planes,
        )

    idx_p, idx_q = predicate.witness(q_neg, q_pos, evidence)
    star_idx = np.concatenate([neg_idx[idx_p], pos_idx[idx_q]])
    size = len(star_idx)
    try:
        basis = _witness_basis(ps, star_idx, basis_a)
        if size >= 2 and basis.count > min(size - ps.k, ps.d - ps.k + 1):
            basis = None
    except SepProjError:
        basis = None

    def attempt(candidate: OrthoBasis):
        """(projected data, failure evidence), or None when the predicate
        still holds after projecting along ``candidate``."""
        projected = ps.with_points(project_points(ps.points, candidate))
        fl, ev = predicate.holds(projected.side(hidden, -1), projected.side(hidden, +1))
        return None if fl else (projected, ev)

    outcome = attempt(basis) if basis is not None else None
    if outcome is None:
        # fall back to projecting fully onto the keep-normal span
        basis = complement_basis(basis_a)
        outcome = attempt(basis)
        if outcome is None:
            raise DegeneratePositionError(
                "predicate survived even the full projection onto the span; "
                "evidence and witness disagree"
            )
    projected, fail_evidence = outcome
    # linear_predicate's evidence is already the strict test of these sides
    hidden_result = fail_evidence if isinstance(fail_evidence, SeparationResult) \
        else linear_separability(projected.side(hidden, -1), projected.side(hidden, +1))
    return _projection_outcome(basis, projected, hidden_result, keep, planes, basis_a,
                               star_idx, evidence=fail_evidence)


# ---------------------------------------------------------------------------
# verification report


@dataclass
class PropertyCheck:
    prop: int
    strict: bool
    weak: bool
    margin: float | None
    result: SeparationResult


@dataclass
class ProjectionReport:
    properties: list[PropertyCheck]
    preserving_residual: float
    basis: OrthoBasis

    def property_check(self, prop: int) -> PropertyCheck:
        return next(c for c in self.properties if c.prop == prop)


def verify_after_projection(ps: LabeledPointSet, basis: OrthoBasis,
                            keep_planes: dict[int, Hyperplane] | None = None
                            ) -> ProjectionReport:
    """Re-derive the separability state of every property on the projected
    data, with certificates, margins, and the orthogonality residuals of the
    basis against the keep-plane normals."""
    projected = ps.with_points(project_points(ps.points, basis)) if basis.count else ps
    checks = []
    for i in range(ps.k):
        pn = projected.side(i, -1)
        pp = projected.side(i, +1)
        res = linear_separability(pn, pp, strict=False)
        strict = res.separable and res.strict
        weak = res.separable
        margin = res.margin if res.separable else None
        checks.append(PropertyCheck(i, strict, weak, margin, res))
    residual = 0.0
    if keep_planes and basis.count:
        normals = np.array([h.normal for h in keep_planes.values()])
        residual = float(np.abs(normals @ basis.vectors.T).max())
    return ProjectionReport(checks, residual, basis)
