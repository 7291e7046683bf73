"""Deterministic generators: explicit counterexample constructions and seeded
random fixtures with planted separators.  Every generator validates its own
output (label census, margins, wedge counts) before returning.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import LabeledPointSet
from .errors import BadParamsError, EpsilonTooLargeError, SamplingFailedError
from .separability import Hyperplane, linear_separability


@dataclass
class FixtureSpec:
    """Generator request: a kind plus its parameters, for reproducible runs."""

    kind: str  # missing-label | circle | cube | random
    params: dict = field(default_factory=dict)


def generate_fixture(spec: FixtureSpec):
    """Dispatch a FixtureSpec; returns (LabeledPointSet, planes-or-None, metadata)."""
    p = dict(spec.params)
    if spec.kind == "missing-label":
        ps = gen_missing_label(int(p.get("k", 2)), int(p.get("d", 2)),
                               float(p.get("epsilon", 0.1)))
        return ps, None, {"generator": spec.kind, **p}
    if spec.kind == "circle":
        ps = gen_circle_labeled(int(p.get("n", 9)), float(p.get("epsilon", 0.01)))
        return ps, None, {"generator": spec.kind, **p}
    if spec.kind == "cube":
        ps = gen_cube_two_maxima(float(p.get("epsilon", 0.2)))
        return ps, None, {"generator": spec.kind, **p}
    if spec.kind == "random":
        ps, planes = gen_random_all_labels(
            int(p.get("n", 12)), int(p.get("d", 3)), int(p.get("k", 2)),
            float(p.get("margin", 0.15)), int(p.get("seed", 0)))
        return ps, planes, {"generator": spec.kind, **p}
    raise BadParamsError(f"unknown fixture kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# hidden-property-locked construction (one label combination deliberately absent)


def _regular_simplex(m: int) -> np.ndarray:
    """m+1 vertices of a regular simplex with unit edge in R^m, first at 0."""
    if m == 0:
        return np.zeros((1, 0))
    # scaled standard basis plus an equidistant apex b*(1,..,1)
    b = (np.sqrt(2.0) + np.sqrt(2.0 * m + 2.0)) / (2.0 * m)
    V = np.vstack([np.eye(m) / np.sqrt(2.0), np.full((1, m), b)])
    return V - V[0]


def gen_missing_label(k: int, d: int, epsilon: float) -> LabeledPointSet:
    """Point set using 2^k - 1 label combinations on which no projection can
    hide the first property while the others stay separable.

    Two (or simplex-many, when d > k) translated copies of a small
    (k-1)-dimensional hypercube pin down the admissible projection directions;
    extra negative points behind a far flat keep the first property separable
    along every one of them.
    """
    if not (d >= k >= 2):
        raise BadParamsError("requires d >= k >= 2")
    if not (0.0 < epsilon < 1.0 / (2.0 * k)):
        raise BadParamsError("epsilon must lie in (0, 1/(2k))")
    kc = k - 1
    cube = np.array(np.meshgrid(*[[-epsilon / 2, epsilon / 2]] * kc,
                                indexing="ij")).reshape(kc, -1).T
    anchors = _regular_simplex(d - k + 1)
    pts = []
    labels = []
    for a in anchors:
        for v in cube:
            x = np.zeros(d)
            x[:kc] = v
            x[kc:] = a
            pts.append(x)
            labels.append([1] + [1 if v[j] > 0 else -1 for j in range(kc)])
    # far flat at distance 1 with an all-positive normal; one extra negative
    # point beyond it in every orthant it crosses
    u = np.ones(kc) / np.sqrt(kc)
    for bits in range(2 ** kc):
        s = np.array([1 if (bits >> j) & 1 else -1 for j in range(kc)], dtype=float)
        if (s < 0).all():
            continue
        m_pos = int((s > 0).sum())
        m_neg = kc - m_pos
        a_mag = 1.1 * np.sqrt(kc) / (m_pos - 0.1 * m_neg)
        g = np.where(s > 0, a_mag, 0.1 * a_mag)
        x = np.zeros(d)
        x[:kc] = s * g
        pts.append(x)
        labels.append([-1] + [int(v) for v in s])
    ps = LabeledPointSet(np.array(pts), np.array(labels).T)
    if len(ps.label_tuples()) != 2 ** k - 1:
        raise BadParamsError("internal label census failed")
    for i in range(k):
        if not linear_separability(ps.side(i, -1), ps.side(i, +1)).separable:
            raise BadParamsError(f"property {i} failed its separability check")
    return ps


# ---------------------------------------------------------------------------
# odd ring whose two-set coverings break only after deleting a point


def _circle_geometry(n: int, epsilon: float):
    theta = 2.0 * np.pi * np.arange(n) / n
    P = np.column_stack([np.cos(theta), np.sin(theta)])
    # each wedge boundary chord passes at distance sin(pi/(2n)) from the
    # origin (inscribed half-angle pi/(2n) at an apex on the unit circle)
    h = np.sin(np.pi / (2.0 * n))
    rho = h + epsilon
    # place the inset points at the chords' tangency feet
    phi = theta - np.pi / 2.0 + np.pi / (2.0 * n)
    Q = rho * np.column_stack([np.cos(phi), np.sin(phi)])
    return P, Q


def _wedge_contains(P, i, x, n):
    """Membership of x in the wedge at apex P[i] spanned toward the two
    opposite ring points."""
    j1 = (i + (n - 1) // 2) % n
    j2 = (i + (n + 1) // 2) % n
    for j in (j1, j2):
        dvec = P[j] - P[i]
        nvec = np.array([-dvec[1], dvec[0]])
        side_origin = nvec @ (0.0 - P[i])
        if (nvec @ (x - P[i])) * side_origin < 0:
            return False
    return True


def gen_circle(n: int, epsilon: float):
    """(P, Q): n ring points and n slightly-inset points placed at the wedge
    tangency feet; every apex wedge contains exactly n-2 of the inset points."""
    if n < 5 or n % 2 == 0:
        raise BadParamsError("n must be odd and at least 5")
    if epsilon <= 0:
        raise BadParamsError("epsilon must be positive")
    P, Q = _circle_geometry(n, epsilon)
    for i in range(n):
        count = sum(_wedge_contains(P, i, q, n) for q in Q)
        if count != n - 2:
            raise EpsilonTooLargeError(
                f"wedge {i} contains {count} points, expected {n - 2}"
            )
    return P, Q


CIRCLE_BISECTIONS = 60   # bisection steps of circle_eps_max


def circle_eps_max(n: int) -> float:
    """Largest epsilon passing the wedge census, to ``CIRCLE_BISECTIONS``
    bisection steps."""
    lo, hi = 0.0, 1.0 - np.sin(np.pi / n)
    for _ in range(CIRCLE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        try:
            gen_circle(n, mid)
            lo = mid
        except EpsilonTooLargeError:
            hi = mid
    return lo


def gen_circle_labeled(n: int, epsilon: float) -> LabeledPointSet:
    """Ring construction as a labeled set: ring points -1, inset points +1."""
    P, Q = gen_circle(n, epsilon)
    pts = np.vstack([P, Q])
    labels = np.concatenate([-np.ones(n, dtype=int), np.ones(n, dtype=int)])
    return LabeledPointSet(pts, labels[None, :])


# ---------------------------------------------------------------------------
# cube fixture with two optimizer basins


def gen_cube_two_maxima(epsilon: float) -> LabeledPointSet:
    """Nine points in R^3: the +-1 cube plus one vertex nudged inward, with two
    properties that differ on a single corner.  Both properties are strictly
    separable; the overlap landscape over admissible projections has two
    distinct maxima basins."""
    if not (0.0 < epsilon < 1.0):
        raise BadParamsError("epsilon must lie in (0, 1)")
    pts = []
    for m in range(8):
        pts.append([2.0 * ((m >> 2) & 1) - 1.0,
                    2.0 * ((m >> 1) & 1) - 1.0,
                    2.0 * (m & 1) - 1.0])
    pts.append([1.0 - epsilon, 1.0 - epsilon, 1.0])
    pts = np.array(pts)
    a1 = np.sign(pts[:, 2]).astype(int)
    a2 = a1.copy()
    a2[7] = -1  # the (1,1,1) corner flips on the second property
    ps = LabeledPointSet(pts, np.vstack([a1, a2]))
    for i in range(2):
        if not linear_separability(ps.side(i, -1), ps.side(i, +1)).separable:
            raise BadParamsError(f"property {i} failed its separability check")
    return ps


# ---------------------------------------------------------------------------
# seeded random fixtures with planted separators


PLANE_RETRIES = 60       # plane sets gen_random_all_labels draws
POINT_TRIES = 40000      # points it samples per plane set


def gen_random_all_labels(n: int, d: int, k: int, margin: float, seed: int):
    """Random planted instance: k hyperplanes, at least one point in each of
    the 2^k sign cells, every point at distance >= margin from every plane.

    Returns (LabeledPointSet, {property: Hyperplane}).  Deterministic in seed.
    Draws up to ``PLANE_RETRIES`` plane sets and samples up to
    ``POINT_TRIES`` points for each before raising SamplingFailedError.
    Samples with d + 1 points on one hyperplane are redrawn.  Raises
    DegeneratePositionError when that check would exceed its cap of
    C(n, d) hyperplanes (200,000: 30 points in R^5 pass, 60 do not).
    """
    if not (d >= k >= 1):
        raise BadParamsError("requires d >= k >= 1")
    if n < 2 ** k:
        raise BadParamsError("need at least one point per label cell")
    if margin <= 0:
        raise BadParamsError("margin must be positive")
    rng = np.random.default_rng([seed, 0xA11A])
    for _ in range(PLANE_RETRIES):
        normals = rng.normal(size=(k, d))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        if k > 1:
            sv = np.linalg.svd(normals, compute_uv=False)
            if sv[-1] < 0.35:
                continue
        offsets = rng.uniform(-0.15, 0.15, size=k)
        cells: dict[tuple, list] = {}
        accepted = 0
        tries = 0
        while tries < POINT_TRIES and (len(cells) < 2 ** k or accepted < n):
            tries += 1
            x = rng.normal(size=d) * 1.6
            s = normals @ x - offsets
            if np.abs(s).min() < margin:
                continue
            cells.setdefault(tuple(np.sign(s).astype(int)), []).append(x)
            accepted += 1
        if len(cells) < 2 ** k or accepted < n:
            continue
        # one representative per cell first, then the remaining samples
        first = [bucket[0] for bucket in cells.values()]
        rest = [x for bucket in cells.values() for x in bucket[1:]]
        pts = np.array((first + rest)[:n])
        from .synthesis import general_position_violations

        if general_position_violations(pts, d + 1):
            continue
        svals = pts @ normals.T - offsets
        labels = np.sign(svals).T.astype(int)
        ps = LabeledPointSet(pts, labels)
        if not ps.uses_all_labels():
            continue
        planes = {i: Hyperplane(normals[i], float(offsets[i])) for i in range(k)}
        for i in range(k):
            res = linear_separability(ps.side(i, -1), ps.side(i, +1))
            if not (res.separable and res.strict and res.margin >= margin - 1e-9):
                break
        else:
            return ps, planes
    raise SamplingFailedError("could not sample a valid planted instance")
