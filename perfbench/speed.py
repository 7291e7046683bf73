"""Machine-speed probe.

This shared machine's speed swings by up to 1.9x over tens of seconds (see
README.md), enough to move a whole run, while a call and a short probe timed
just before it slow down together.  So every timed call is also reported at
the reference speed: ``t * REFERENCE_S / probe()``.
"""
from __future__ import annotations

import time

REFERENCE_S = 0.0005   # probe() on an unloaded core of the reference machine


def _loop():
    s = 0
    for i in range(7000):
        s += i * i % 7
    return s


def probe() -> float:
    """Seconds for a fixed pure-Python loop: best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best
