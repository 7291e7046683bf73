"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each layer's public functions with a wrapper, in
their own module and in every sepproj module that imported them by name, and
``uninstall`` puts the originals back.  Each call records a span (name,
start, end, parent); self time is a span's duration minus the time its child
spans cover.  Spans stay in memory until ``write_spans``.
"""
from __future__ import annotations

import csv
import gzip
import math
import sys
import time
from collections import defaultdict

LAYERS = {
    "_kernels": ["smo_box_equality", "simplex_standard"],
    "lp": ["solve_lp"],
    "separability": ["linear_separability", "max_slack_separator", "weak_separator",
                     "common_point", "point_in_hull", "kirchberger_reduce"],
    "geometry": ["orthonormalize", "complement_basis", "intersect_flats",
                 "barycentric_coords"],
    "synthesis": ["construct_eliminating_projection", "perturb_general_position",
                  "multi_projection_driver", "verify_after_projection",
                  "general_position_violations"],
    "overlap": ["maximize_overlap", "f_value", "min_overlap"],
}

# (metric, unit, better); counts and times are per attempted operation
PER_LAYER = [
    ("kernels.smo_box_equality.calls", "count/op", "lower"),
    ("kernels.smo_box_equality.iterations", "count/op", "lower"),
    ("kernels.smo_box_equality.self_s", "s/op", "lower"),
    ("kernels.simplex_standard.calls", "count/op", "lower"),
    ("kernels.simplex_standard.self_s", "s/op", "lower"),
    ("lp.solve_lp.calls", "count/op", "lower"),
    ("lp.solve_lp.self_s", "s/op", "lower"),
    ("lp.solve_lp.errors", "count/op", "lower"),
    ("lp.solve_lp.retries", "count/op", "lower"),
    ("separability.linear_separability.calls", "count/op", "lower"),
    ("separability.linear_separability.self_s", "s/op", "lower"),
    ("separability.max_slack_separator.calls", "count/op", "lower"),
    ("separability.weak_separator.calls", "count/op", "lower"),
    ("separability.common_point.calls", "count/op", "lower"),
    ("separability.point_in_hull.calls", "count/op", "lower"),
    ("separability.kirchberger_reduce.calls", "count/op", "lower"),
    ("separability.kirchberger_reduce.self_s", "s/op", "lower"),
    ("geometry.orthonormalize.calls", "count/op", "lower"),
    ("geometry.orthonormalize.self_s", "s/op", "lower"),
    ("geometry.complement_basis.calls", "count/op", "lower"),
    ("geometry.intersect_flats.calls", "count/op", "lower"),
    ("geometry.barycentric_coords.calls", "count/op", "lower"),
    ("synthesis.construct_eliminating_projection.self_s", "s/op", "lower"),
    ("synthesis.perturb_general_position.self_s", "s/op", "lower"),
    ("synthesis.multi_projection_driver.self_s", "s/op", "lower"),
    ("synthesis.verify_after_projection.self_s", "s/op", "lower"),
    ("synthesis.perturb_general_position.attempts", "count/op", "lower"),
    ("synthesis.general_position_violations.calls", "count/op", "lower"),
    ("synthesis.general_position_violations.subsets", "count/op", "lower"),
    ("synthesis.general_position_violations.self_s", "s/op", "lower"),
    ("overlap.maximize_overlap.self_s", "s/op", "lower"),
    ("overlap.f_value.calls", "count/op", "lower"),
    ("overlap.min_overlap.calls", "count/op", "lower"),
    ("overlap.min_overlap.self_s", "s/op", "lower"),
    ("overlap.slack_oracle.calls", "count/op", "lower"),
    ("bench.traced_ops_per_s", "1/s", "higher"),
]


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self._stack = []           # [span index, child time, simplex children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        self._patched = []

    # -- span bookkeeping -------------------------------------------------
    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append([len(self.spans) - 1, 0.0, 0])

    def _exit(self, name):
        idx, child_s, simplex_children = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        dur = span[2] - span[1]
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        if self._stack:
            self._stack[-1][1] += dur
            if name == "kernels.simplex_standard":
                self._stack[-1][2] += 1
        if name == "lp.solve_lp":
            self.extra["lp.solve_lp.retries"] += max(0, simplex_children - 1)

    def begin_op(self):
        self._enter("bench.op")

    def end_op(self):
        self._exit("bench.op")

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.extra[name + ".errors"] += 1
                raise
            finally:
                tracer._exit(name)
            tracer._record(name, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _record(self, name, out):
        if name == "kernels.smo_box_equality":
            self.extra[name + ".iterations"] += out[0]
        elif name == "synthesis.perturb_general_position":
            self.extra[name + ".attempts"] += out[1]["attempts"]

    # -- installation -----------------------------------------------------
    def install(self):
        from sepproj import overlap

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "sepproj" or k.startswith("sepproj."))]
        for short, names in LAYERS.items():
            mod = sys.modules["sepproj." + short]
            for fname in names:
                orig = getattr(mod, fname)
                # metric names start with a letter: _kernels -> kernels
                wrapper = self._wrap(f"{short.lstrip('_')}.{fname}", orig)
                if fname == "general_position_violations":
                    wrapper = self._count_subsets(wrapper)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        slack = overlap.SlackOracle.slack
        self._patched.append((overlap.SlackOracle, "slack", slack))
        overlap.SlackOracle.slack = self._wrap("overlap.slack_oracle", slack)

    def _count_subsets(self, wrapper):
        tracer = self

        def counted(points, subset_size, *args, **kwargs):
            n = len(points)
            tracer.extra["synthesis.general_position_violations.subsets"] += (
                math.comb(n, subset_size) if subset_size <= n else 0)
            return wrapper(points, subset_size, *args, **kwargs)

        return counted

    def uninstall(self):
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        self._patched.clear()

    # -- output -----------------------------------------------------------
    def metrics(self, attempted):
        out = {}
        for metric, _, _ in PER_LAYER:
            if metric.startswith("bench."):
                continue
            name, _, kind = metric.rpartition(".")
            if kind == "calls":
                v = self.calls[name]
            elif kind == "self_s":
                v = self.self_s[name]
            else:
                v = self.extra[metric]
            out[metric] = v / attempted
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as f:
            w = csv.writer(f)
            w.writerow(["name", "start_s", "end_s", "parent"])
            w.writerows(self.spans)
