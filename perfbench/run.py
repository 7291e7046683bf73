"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload runs in a fresh
single-threaded worker process (worker.py).  Set-up time is measured from
spawning a process until it reports set-up done; four extra set-up-only
processes run first and ``setup_s`` is the median of the five.  Times are
reported at the reference speed of speed.py.  The last line of standard
output is the result as JSON; a fuller record goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed  # stdlib only, like tracing; run.py's directory is on sys.path
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("certify", "hide", "climb_svm", "climb_interval")
END_TO_END = [("ops_per_s", "1/s"), ("latency_p50_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("quality", "score")]
SETUP_SAMPLES = 5
DEADLINE_S = 170.0      # the whole run, set-ups included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


class RunError(Exception):
    pass


def _env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_worker(argv, deadline):
    """Start a worker; return (set-up seconds at the reference speed,
    remaining stdout lines).  The worker is always waited for, and killed if
    it outlives the deadline."""
    sel = selectors.DefaultSelector()
    scale = speed.REFERENCE_S / speed.probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
    try:
        sel.register(proc.stdout, selectors.EVENT_READ)
        setup_s = None
        lines = []
        buf = ""
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RunError("worker exceeded the run deadline")
            if not sel.select(timeout=left):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16).decode()
            if not chunk:
                break
            buf += chunk
            while "\n" in buf:
                line, buf = buf.split("\n", 1)
                if line == "READY" and setup_s is None:
                    setup_s = (time.perf_counter() - t0) * scale
                else:
                    lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0 or setup_s is None:
            raise RunError(f"worker exited with code {code}")
        return setup_s, lines
    finally:
        sel.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "sepproj" / "__init__.py").is_file():
        print("run.py: src/sepproj not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_run_worker(wargs + ["--setup-only"], deadline)[0])
        setup_s, lines = _run_worker(wargs, deadline)
        setups.append(setup_s)
        res = json.loads(lines[-1])
    except (RunError, IndexError, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    res["setup_s"] = statistics.median(setups)
    res["setup_samples_s"] = setups
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(res, indent=1) + "\n")

    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
    info = {k: res[k] for k in ("rounds", "pool", "measured_s", "failures")}
    info["tail"] = res.get("tail")
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
