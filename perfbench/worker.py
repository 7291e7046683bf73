"""One workload in one process: set-up, an untimed warm-up pass over one
operation of each kind, then whole timed rounds over the operation pool in a
closed loop.  Answers are checked outside the timed calls.

Invoked by run.py, which times set-up from process start.  With
``--setup-only`` the process stops after set-up.  Prints ``READY`` when
set-up ends and the result as one JSON line at the end.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def digest(obj, h=None):
    """Hash of every number, array and string reachable from an answer; two
    answers with the same digest are the same answer."""
    import numpy as np

    top = h is None
    h = h or hashlib.sha1()
    if isinstance(obj, np.ndarray):
        h.update(str((obj.dtype, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            digest(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        for k in sorted(obj, key=repr):
            h.update(repr(k).encode())
            digest(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}".encode())
        for x in obj:
            digest(x, h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def _kind(name):
    """Operation name without its instance numbers."""
    return "-".join(p for p in name.split("-") if not p.isdigit())


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import speed
    import workloads

    pool = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import checks  # reference solvers load only after set-up is timed

    # untimed warm-up: one operation of each kind
    seen = set()
    for op in pool:
        if _kind(op.name) not in seen:
            seen.add(_kind(op.name))
            try:
                op.call()
            except Exception:  # failures are counted in the timed rounds
                pass

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    # each answer is checked independently the first time; a repeat with the
    # same digest inherits that verdict, any other answer is checked again
    ref = [None] * len(pool)
    quality = [None] * len(pool)
    calls = []     # (operation index, wall seconds, ok) in call order
    probes = []    # speed probe before each call, and one after the last
    attempted = failed = mismatched = rounds = 0
    failures = {}
    measured = 0.0
    while measured < args.seconds:
        rounds += 1
        for i, op in enumerate(pool):
            probes.append(speed.probe())
            if tracer:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                out = op.call()
                err = None
            except Exception as exc:  # counted as a failed operation
                err = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            measured += dt
            attempted += 1
            if err is not None:
                verdict = f"error: {type(err).__name__}: {err}"
            else:
                dig = digest(out)
                if ref[i] is not None and ref[i][1] == dig:
                    verdict = ref[i][0]
                else:
                    try:
                        op.check(out)
                        verdict = "ok"
                    except checks.Mismatch as exc:
                        verdict = f"mismatch: {exc}"
                    if ref[i] is None:
                        ref[i] = (verdict, dig)
                        if verdict == "ok" and op.quality:
                            quality[i] = op.quality(out)
            calls.append((i, dt, verdict == "ok"))
            if verdict != "ok":
                failed += 1
                mismatched += verdict.startswith("mismatch")
                failures.setdefault(op.name, verdict)

    probes.append(speed.probe())

    # every call also at the reference speed, from the probes around it
    lat = [[] for _ in pool]
    ref_lat = [[] for _ in pool]
    ok_lat, ok_ref_lat = [], []
    for k, (i, dt, ok) in enumerate(calls):
        rdt = dt * speed.REFERENCE_S / (0.5 * (probes[k] + probes[k + 1]))
        lat[i].append(dt)
        ref_lat[i].append(rdt)
        if ok:
            ok_lat.append(dt)
            ok_ref_lat.append(rdt)
    ok_ref_lat.sort()
    good_per_round = (attempted - failed) / rounds
    qualities = [q for q in quality if q is not None]
    result = {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "pool": len(pool),
        "measured_s": measured,
        # throughput of a typical round: per-operation medians over the rounds
        "ops_per_s": good_per_round / sum(statistics.median(ts) for ts in ref_lat),
        "latency_p50_s": statistics.median(ok_ref_lat) if ok_ref_lat else float("nan"),
        "wall_ops_per_s": good_per_round / sum(statistics.median(ts) for ts in lat),
        "wall_latency_p50_s": statistics.median(ok_lat) if ok_lat else float("nan"),
        "quality": statistics.fmean(qualities) if qualities else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures,
        "latencies": {op.name: lat[i] for i, op in enumerate(pool)},
        "reference_latencies": {op.name: ref_lat[i] for i, op in enumerate(pool)},
        "probe_median_s": statistics.median(probes),
    }
    n = len(ok_ref_lat)
    tail = [p for p in (50, 90, 99, 99.9) if n * (1 - p / 100) >= 10]
    if tail:
        p = tail[-1]
        result["tail"] = {"percentile": p, "samples": n,
                          "latency_s": ok_ref_lat[min(n - 1, int(n * p / 100))]}
    if tracer:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics(attempted)
        result["per_layer"]["bench.traced_ops_per_s"] = result["ops_per_s"]
        tracer.write_spans(OUT / f"spans-{args.workload}-s{args.seed}.csv.gz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
