"""Seeded input generators with planted separators, and rigid motions.

The program under test receives only the points and labels these return; the
planted normals and margins stay with the benchmark, which uses them to score
answers.
"""
from __future__ import annotations

import numpy as np


def planted_pair(rng, d, n, m, margin):
    """(P, Q, v): every point of P at signed distance <= -margin from the plane
    v.x = 0 and every point of Q at >= +margin, with unit normal v."""
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    Y = rng.normal(size=(n + m, d))
    Y -= np.outer(Y @ v, v)
    tp = -(margin + rng.uniform(0.0, 1.0, size=n))
    tq = margin + rng.uniform(0.0, 1.0, size=m)
    P = Y[:n] + np.outer(tp, v)
    Q = Y[n:] + np.outer(tq, v)
    return P, Q, v


def touching_pair(rng, d, n, m):
    """(P, Q, v): a planted pair whose sides share one point on the plane
    v.x = 0, so they are weakly but not strictly separable."""
    P, Q, v = planted_pair(rng, d, n, m, 0.2)
    x0 = rng.normal(size=d)
    x0 -= (x0 @ v) * v
    P[0] = x0
    Q[0] = x0
    return P, Q, v


def overlapping_pair(rng, d, n, m, shift):
    """(P, Q): two unit Gaussian clouds whose centres lie ``shift`` apart.

    The last point of each side mirrors its first through a shared point x0,
    so x0 lies in both hulls and the pair is never separable."""
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    x0 = rng.normal(size=d)
    P = x0 - 0.5 * shift * u + rng.normal(size=(n, d))
    Q = x0 + 0.5 * shift * u + rng.normal(size=(m, d))
    P[-1] = 2.0 * x0 - P[0]
    Q[-1] = 2.0 * x0 - Q[0]
    return P, Q


def planted_instance(rng, n, d, k, margin):
    """(points, labels, normals, offsets): n points in R^d with k planted
    planes normals[i].x = offsets[i], every one of the 2^k sign cells occupied
    and every point at distance >= margin from every plane.

    labels is (k, n) with entries -1/+1; property i is strictly separable by
    its planted plane with margin at least ``margin``."""
    while True:
        N = rng.normal(size=(k, d))
        N /= np.linalg.norm(N, axis=1, keepdims=True)
        if k > 1 and np.linalg.svd(N, compute_uv=False)[-1] < 0.35:
            continue
        off = rng.uniform(-0.15, 0.15, size=k)
        X = rng.normal(size=(8 * n, d)) * 1.6
        S = X @ N.T - off
        keep = np.abs(S).min(axis=1) >= margin
        X, S = X[keep], S[keep]
        cell = (S > 0).astype(int) @ (1 << np.arange(k))
        first = [np.flatnonzero(cell == c)[:1] for c in range(2 ** k)]
        if any(len(f) == 0 for f in first):
            continue
        first = np.concatenate(first)
        rest = np.setdiff1d(np.arange(len(X)), first)[: n - len(first)]
        if len(first) + len(rest) < n:
            continue
        X = X[np.concatenate([first, rest])]
        labels = np.where(X @ N.T - off > 0, 1, -1).T
        return X, labels, N, off


class RigidMotion:
    """x -> R x + t with R a uniformly random rotation (or reflection, or
    the identity when ``rotate`` is false) and t standard normal.

    Separability, margins and overlap values are unchanged.  The points keep
    their order: the hard-margin SMO solver's iteration count depends on it
    (one 24-point pair in R^4 took 393 to 1,609 iterations over six orders)
    much more than on the motion itself."""

    def __init__(self, rng, d, rotate=True):
        A, B = np.linalg.qr(rng.normal(size=(d, d)))
        self.R = A * np.sign(np.diag(B)) if rotate else np.eye(d)
        self.t = rng.normal(size=d)

    def points(self, X):
        return np.asarray(X, dtype=float) @ self.R.T + self.t

    def instance(self, X, labels, normals, offsets):
        N = normals @ self.R.T
        return self.points(X), labels, N, offsets + N @ self.t
