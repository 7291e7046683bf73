"""Self-tests of the output checks: each accepts a correct answer from the
program and rejects the same answer corrupted.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""
from __future__ import annotations

import copy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
from sepproj import overlap, separability, synthesis  # noqa: E402
from sepproj.data import LabeledPointSet  # noqa: E402
from sepproj.geometry import OrthoBasis  # noqa: E402
from sepproj.separability import Hyperplane  # noqa: E402


def _verdict(fn, *args):
    try:
        fn(*args)
    except checks.Mismatch:
        return "rejects"
    return "accepts"


def _tilt(w, normal, by=1e-3):
    w2 = w + by * normal
    return w2 / np.linalg.norm(w2)


def cases():
    rng = np.random.default_rng(0)

    P, Q, _ = inputs.planted_pair(rng, 4, 20, 20, 0.2)
    sep = separability.linear_separability(P, Q)
    h = sep.hyperplane
    shifted = replace(sep, hyperplane=Hyperplane(h.normal, h.offset + 1.5 * sep.margin))
    yield "separable answer", "accepts", checks.check_separation, P, Q, sep
    yield "shifted plane", "rejects", checks.check_separation, P, Q, shifted

    P, Q = inputs.overlapping_pair(rng, 4, 20, 20, 1.0)
    cp = separability.linear_separability(P, Q)
    lam = cp.lam.copy()
    i, j = np.argsort(lam)[-2:]
    lam[i] += 0.5
    lam[j] -= 0.5          # still sums to one, one coefficient negative
    yield "common point", "accepts", checks.check_separation, P, Q, cp
    yield "non-convex coefficients", "rejects", checks.check_separation, P, Q, \
        replace(cp, lam=lam)
    yield "coefficients off the point", "rejects", checks.check_separation, P, Q, \
        replace(cp, point=cp.point + 0.1)

    X, L, N, off = inputs.planted_instance(rng, 12, 3, 2, 0.15)
    keep = {1: Hyperplane(N[1], off[1])}
    out = synthesis.construct_eliminating_projection(
        synthesis.SynthesisProblem(LabeledPointSet(X, L), 0, keep))
    w = out.basis.vectors[0]
    bad = copy.copy(out)
    bad.basis = OrthoBasis(_tilt(w, N[1])[None, :])
    yield "eliminating projection", "accepts", checks.check_projection, X, L, keep, out
    yield "projection not orthogonal to the keep normal", "rejects", \
        checks.check_projection, X, L, keep, bad

    spec = overlap.OverlapSpec(kind="svm", lam=0.5)
    res = overlap.maximize_overlap(LabeledPointSet(X, L), spec, keep_normals=N[1:],
                                   starts=2, seed=0)
    y = L[0].astype(float)
    yield "svm climb", "accepts", checks.check_climb, X, y, list(N[1:]), res, "svm", 0.5
    yield "climb direction not orthogonal to the keep normal", "rejects", \
        checks.check_climb, X, y, list(N[1:]), replace(res, best=_tilt(res.best, N[1])), \
        "svm", 0.5
    yield "svm value off", "rejects", checks.check_climb, X, y, list(N[1:]), \
        replace(res, value=res.value + 1e-3), "svm", 0.5

    Xi, Li, Ni, _ = inputs.planted_instance(rng, 8, 4, 2, 0.15)
    ires = overlap.maximize_overlap(LabeledPointSet(Xi, Li), overlap.OverlapSpec(kind="interval"),
                                    keep_normals=Ni[1:], starts=1, seed=0)
    yi = Li[0].astype(float)
    yield "interval climb", "accepts", checks.check_climb, Xi, yi, list(Ni[1:]), ires, \
        "interval"
    yield "interval value inflated", "rejects", checks.check_climb, Xi, yi, list(Ni[1:]), \
        replace(ires, value=ires.value + 1e-2), "interval"


def main():
    bad = 0
    for name, want, fn, *args in cases():
        got = _verdict(fn, *args)
        ok = got == want
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got} (want {want})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
