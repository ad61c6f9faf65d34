"""In-memory span tracing for the benchmark's traced runs.

``installed(tracer)`` wraps the public functions of each densityball module in
every module namespace that binds them, which is where their consumers look
them up (``densityball.ball.resampling_variance``, ``densityball.cli.main``),
and wraps the listed methods on every class that defines them
(``basis_matrix`` on the ``Model`` subclasses).  Leaving the block restores the
originals.  Untraced runs never call it, so they run unwrapped code.

A span is ``(name, start, end, parent, op, work)``; ``work`` is the layer's
count of work done (elements summed, basis entries, weight entries, bytes
read).  ``layer_metrics`` turns the spans of a run into per-op figures.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Layer (module) -> public functions, wrapped wherever a densityball module
# binds them.  A name a later version removes is skipped and reads 0.
FUNCTIONS = {
    "accumulate": ("compensated_sum", "row_sums"),
    "estimators": (
        "project",
        "resampling_variance",
        "resampling_statistics",
        "resampling_variance_monte_carlo",
        "projection_bias_estimate",
        "projection_error_sq",
    ),
    "bounds": ("variance_bound", "bias_bound", "radius"),
    "ball": ("build_confidence_ball", "select_model_index"),
    "cli": ("main", "read_sample_file"),
    "weights": ("sample_weights_batch", "replication_rng"),
    "experiments": ("coverage_experiment", "normalized_difference_experiment"),
}
# Layer -> (base class, method) pairs, wrapped on every subclass defining them.
METHODS = {
    "basis": (("Model", "basis_matrix"),),
    "oracle": (("DensityOracle", "sample_points"), ("DensityOracle", "true_coefficients")),
}
# Modules no workload reaches; their cost is not measured.
UNMEASURED = {
    "_quadrature": "used only by check-assumptions and the diagnostics; no workload calls it",
}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = [
    {"metrics": ["accumulate.calls", "accumulate.busy_s", "accumulate.terms"],
     "moves": "op_p50_s", "workloads": ["ball-hist", "ball-fourier"],
     "note": "largest share on ball-hist; about 0 on coverage"},
    {"metrics": ["estimators.projection_bias_estimate.calls", "estimators.projection_bias_estimate.self_s",
                 "estimators.resampling_variance.calls", "estimators.resampling_variance.self_s",
                 "estimators.project.self_s"],
     "moves": "op_p50_s", "workloads": ["ball-hist", "ball-fourier"]},
    {"metrics": ["basis.basis_matrix.calls", "basis.basis_matrix.busy_s", "basis.basis_matrix.entries",
                 "basis.eval_ratio"],
     "moves": "op_p50_s on ball-fourier, peak_rss_mb on ball-hist",
     "workloads": ["ball-fourier", "ball-hist"],
     "note": "eval_ratio is about 2 x models today; 1 is the one-pass floor"},
    {"metrics": ["bounds.calls", "bounds.busy_s"], "moves": "op_p50_s", "workloads": ["ball-fourier"]},
    {"metrics": ["ball.build_confidence_ball.self_s", "ball.select_model_index.busy_s"],
     "moves": "op_p50_s", "workloads": ["ball-hist", "ball-fourier"]},
    {"metrics": ["cli.main.self_s", "cli.read_sample_file.busy_s", "cli.bytes_in", "cli.bytes_out"],
     "moves": "op_p50_s", "workloads": ["ball-hist", "ball-fourier"],
     "note": "matters once the estimators are one-pass"},
    {"metrics": ["weights.sample_weights_batch.calls", "weights.sample_weights_batch.busy_s",
                 "weights.sample_weights_batch.entries"],
     "moves": "ops_per_s", "workloads": ["coverage", "simulate-pw"],
     "note": "simulate-pw shows per-call cost at small batch sizes"},
    {"metrics": ["estimators.resampling_statistics.calls", "estimators.resampling_statistics.self_s",
                 "estimators.projection_error_sq.self_s"],
     "moves": "ops_per_s", "workloads": ["coverage"]},
    {"metrics": ["experiments.coverage_experiment.self_s",
                 "experiments.normalized_difference_experiment.self_s", "weights.replication_rng.busy_s",
                 "oracle.sample_points.busy_s", "oracle.true_coefficients.busy_s"],
     "moves": "ops_per_s and cpu_per_op_s", "workloads": ["simulate-pw"],
     "note": "per-replication overhead dominates there"},
    {"metrics": ["trace.overhead_frac"], "moves": "none (traced op_p50_s / untraced op_p50_s - 1)",
     "workloads": ["ball-hist", "ball-fourier", "coverage", "simulate-pw"]},
]


def _size(value) -> int:
    if isinstance(value, np.ndarray):
        return value.size
    return len(value) if hasattr(value, "__len__") else 0


# Span name -> work done by one call, from its arguments and result.
WORK = {
    "accumulate.compensated_sum": lambda args, result: _size(args[0]),
    "accumulate.row_sums": lambda args, result: _size(args[0]),
    "basis.basis_matrix": lambda args, result: result.size,
    "weights.sample_weights_batch": lambda args, result: result.size,
    "cli.read_sample_file": lambda args, result: os.path.getsize(args[0]),
}


class Tracer:
    """Collects spans in memory; ``op`` tags the spans of the op under way."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                record[5] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        """Write every span, times in seconds from the tracer's creation."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[n], round(a - self.origin, 7), round(b - self.origin, 7), p, op, w]
            for n, a, b, p, op, w in self.spans
        ]
        doc = {"fields": ["name", "start_s", "end_s", "parent", "op", "work"], "names": names, "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _program_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "densityball" or name.startswith("densityball.")]


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function and method for the duration of the block."""
    patches = []
    modules = _program_modules()
    try:
        for layer, names in FUNCTIONS.items():
            home = sys.modules.get(f"densityball.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = tracer.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, value))
                            setattr(module, attr, wrapper)
        for layer, pairs in METHODS.items():
            home = sys.modules.get(f"densityball.{layer}")
            for base_name, method in pairs:
                base = getattr(home, base_name, None)
                for cls in _subclasses(base) if base is not None else ():
                    if method in vars(cls):
                        original = vars(cls)[method]
                        patches.append((cls, method, original))
                        setattr(cls, method, tracer.wrap(f"{layer}.{method}", original))
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls, busy, self and work totals per span name and per layer.

    ``busy`` counts a span only when no ancestor belongs to the same name (or
    layer), so nested calls are not counted twice; ``self`` is a span's time
    minus the time of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _, work) in enumerate(spans):
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            entry = stats.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
            entry["calls"] += 1
            entry["work"] += work
            if key == name:
                entry["self_s"] += end - start - child_time[i]
            p = parent
            while p >= 0 and not (spans[p][0] == key or spans[p][0].startswith(key + ".")):
                p = spans[p][3]
            if p < 0:
                entry["busy_s"] += end - start
    return stats


def layer_metrics(
    names: list[str],
    tracer: Tracer,
    ops: int,
    bytes_out: float,
    points_times_top_dim: int | None,
    overhead_frac: float,
) -> dict[str, float]:
    """Per-op value of every per-layer metric in ``names``.

    ``<span or layer>.<calls|busy_s|self_s|terms|entries>`` read the span
    statistics; ``cli.bytes_in`` is the bytes ``read_sample_file`` read;
    ``basis.eval_ratio`` is basis entries / (n x d_top) of a ball op, and 0
    on workloads that build no ball.
    """
    stats = _span_stats(tracer.spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0}
    special = {
        "cli.bytes_in": stats.get("cli.read_sample_file", empty)["work"] / ops,
        "cli.bytes_out": bytes_out,
        "basis.eval_ratio": (
            stats.get("basis.basis_matrix", empty)["work"] / ops / points_times_top_dim
            if points_times_top_dim
            else 0.0
        ),
        "trace.overhead_frac": overhead_frac,
    }
    targets = set(FUNCTIONS) | set(METHODS)
    targets |= {f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns}
    targets |= {f"{layer}.{method}" for layer, pairs in METHODS.items() for _, method in pairs}
    out = {}
    for metric in names:
        if metric in special:
            out[metric] = special[metric]
            continue
        target, stat = metric.rsplit(".", 1)
        if target not in targets or stat not in ("calls", "busy_s", "self_s", "terms", "entries"):
            raise ValueError(f"no span or layer behind per-layer metric {metric!r}")
        key = "work" if stat in ("terms", "entries") else stat
        out[metric] = stats.get(target, empty)[key] / ops
    return out
