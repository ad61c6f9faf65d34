"""The benchmark's workloads: seeded inputs, the CLI call of each op, and output checks.

Every op is one ``densityball.cli.main(argv)`` call.  ``prepare`` builds an
op's input from the op's own seed, ``check`` returns the problems found in one
op's output (an empty list means the op passed), and ``check_pooled`` applies
the statistical bands that need the outputs of every op of a run.

The checks recompute the estimates from closed forms instead of comparing bytes
with an earlier version, so a change that only moves rounding still passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Closed-form references must match to this share of the largest term that
# enters them (the library reaches about 1e-15; a real defect is O(1)).
RTOL = 1e-10
# Statistical bands are this many standard errors wide, plus the stated slack.
BAND_SIGMAS = 4.0
# Acceptance criterion 6 allows |coverage - alpha| <= 0.05 at the README config.
COVERAGE_SLACK = 0.05
ALPHA_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
# Ball samples come from this smooth, non-uniform law on [0, 1]:
# (weight, a, b) components of a Beta mixture.
BETA_MIXTURE = ((0.6, 2.0, 5.0), (0.4, 6.0, 2.0))


@dataclass
class Op:
    """One prepared CLI call and what its check needs."""

    index: int
    seed: int
    argv: list[str]
    out_path: Path
    points: np.ndarray | None = None


def op_seed(workload_seed: int, index: int) -> int:
    """Seed of op ``index``; op 0 is the warm-up, so no timed op repeats it."""
    seq = np.random.SeedSequence(int(workload_seed), spawn_key=(int(index),))
    return int(seq.generate_state(1)[0])


def beta_mixture_points(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    (w0, a0, b0), (_, a1, b1) = BETA_MIXTURE
    first = rng.random(n) < w0
    return np.where(first, rng.beta(a0, b0, n), rng.beta(a1, b1, n))


def _close(value, reference: float, scale: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and (
        abs(value - reference) <= RTOL * abs(scale)
    )


@dataclass(frozen=True)
class BallWorkload:
    """``ball --format doc`` on a fresh Beta-mixture sample file per op."""

    name: str
    family: str
    dims: tuple[int, ...]
    n: int

    @property
    def top_dim(self) -> int:
        return self.dims[-1]

    def sizes(self) -> dict:
        return {"family": self.family, "dims": list(self.dims), "models": len(self.dims), "n": self.n}

    def prepare(self, index: int, seed: int, work: Path) -> Op:
        points = beta_mixture_points(self.n, seed)
        sample = work / "sample.txt"
        sample.write_text("\n".join(map(repr, points.tolist())) + "\n", encoding="utf-8")
        out = work / "out.json"
        argv = [
            "ball", "--input", str(sample), "--format", "doc", "--out", str(out),
            "--collection-family", self.family,
            "--collection-dims", ",".join(map(str, self.dims)),
        ]
        return Op(index, seed, argv, out, points)

    def prefix_norms(self, points: np.ndarray) -> np.ndarray:
        """``Q_d = sum_l (sum_i psi_l(X_i))^2`` for every model dimension ``d``.

        Both families have ``sum_l psi_l(x)^2 = d`` at every ``x``, so the
        variance and bias estimates are closed forms of ``Q``.
        """
        n = points.size
        if self.family == "histogram":
            q = []
            for d in self.dims:
                counts = np.bincount(np.minimum((points * d).astype(int), d - 1), minlength=d)
                q.append(float(d * int(np.dot(counts, counts))))
            return np.array(q)
        freqs = np.arange(1, (self.top_dim - 1) // 2 + 1)
        angles = 2.0 * np.pi * freqs[:, None] * points[None, :]
        power = np.cos(angles).sum(axis=1) ** 2 + np.sin(angles).sum(axis=1) ** 2
        cumulative = float(n) * n + 2.0 * np.concatenate([[0.0], np.cumsum(power)])
        return cumulative[[(d - 1) // 2 for d in self.dims]]

    def check(self, op: Op, output: bytes) -> tuple[list[str], None]:
        try:
            doc = json.loads(output)
            return check_ball_doc(doc, self.prefix_norms(op.points), op.points.size, self.dims), None
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"malformed ball document: {type(exc).__name__}: {exc}"], None

    def check_pooled(self, samples: list) -> list[str]:
        return []


def check_ball_doc(doc: dict, q: np.ndarray, n: int, dims) -> list[str]:
    """Problems in a ball document, given the reference ``Q_d`` per model.

    ``variance = (n d - Q_d / n) / (n (n-1))`` and
    ``bias = (Q_D - Q_d - n (D - d)) / (n (n-1))`` with ``D`` the top dimension.
    """
    errors = []
    models = doc["models"]
    if [m["dim"] for m in models] != list(dims):
        return [f"model dims {[m['dim'] for m in models]} != {list(dims)}"]
    denom = n * (n - 1.0)
    top, q_top = dims[-1], q[-1]
    for m, d, q_d in zip(models, dims, q):
        variance = (n * d - q_d / n) / denom
        if not _close(m["variance_estimate"], variance, n * d / denom):
            errors.append(f"{m['model']}: variance_estimate {m['variance_estimate']!r} != {variance!r}")
        bias = (q_top - q_d - n * (top - d)) / denom
        if not _close(m["bias_estimate"], bias, (q_top + n * top) / denom):
            errors.append(f"{m['model']}: bias_estimate {m['bias_estimate']!r} != {bias!r}")
        radius_sq = doc["eta"] ** 2 + m["bias_bound"] + m["variance_bound"]
        if not _close(m["radius_sq"], radius_sq, radius_sq):
            errors.append(f"{m['model']}: radius_sq {m['radius_sq']!r} != eta^2 + bounds {radius_sq!r}")
        root = math.sqrt(max(radius_sq, 0.0))
        if m["clamped"] != (radius_sq < 0.0) or not _close(m["radius"], root, root):
            errors.append(f"{m['model']}: radius {m['radius']!r} != sqrt(radius_sq) {root!r}")
    best = min(range(len(models)), key=lambda i: (models[i]["radius_sq"], models[i]["dim"], i))
    chosen = doc["selected_index"]
    if chosen != best:
        return errors + [f"selected_index {chosen} is not the radius_sq argmin {best}"]
    m = models[chosen]
    if doc["selected_model"] != m["model"] or doc["radius"] != m["radius"]:
        errors.append("selected_model/radius disagree with the selected report row")
    center = np.asarray(doc["center_coefficients"], dtype=float)
    norm_sq = q[chosen] / (float(n) * n)
    if center.shape != (m["dim"],) or not _close(float(center @ center), norm_sq, norm_sq):
        errors.append(f"center has shape {center.shape} or squared norm != {norm_sq!r}")
    return errors


def _read_csv(output: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(output.decode("utf-8"))))


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


@dataclass(frozen=True)
class CoverageWorkload:
    """``coverage`` on the uniform density; each op gets its own ``--seed``."""

    name: str
    n: int
    dm: int
    nb: int
    reps: int
    alphas: tuple[float, ...] = ALPHA_GRID

    def sizes(self) -> dict:
        return {"n": self.n, "dm": self.dm, "nb": self.nb, "reps": self.reps, "alphas": len(self.alphas)}

    def prepare(self, index: int, seed: int, work: Path) -> Op:
        out = work / "out.csv"
        argv = [
            "coverage", "--seed", str(seed), "--out", str(out),
            "--n", str(self.n), "--dm", str(self.dm), "--nb", str(self.nb), "--reps", str(self.reps),
            "--alpha-grid", ",".join(map(str, self.alphas)),
        ]
        return Op(index, seed, argv, out)

    def check(self, op: Op, output: bytes) -> tuple[list[str], np.ndarray | None]:
        """Well-formed, finite rows; returns the hit counts per alpha for pooling."""
        try:
            rows = _read_csv(output)
            if rows[0] != ["alpha", "coverage", "reference"] or len(rows) != len(self.alphas) + 1:
                return [f"unexpected coverage table shape/header {rows[:1]}"], None
            hits = []
            for (a, c, r), alpha in zip(rows[1:], self.alphas):
                coverage = _finite(c)
                count = coverage * self.reps
                if _finite(a) != alpha or _finite(r) != alpha:
                    return [f"alpha column {a!r}/{r!r} != {alpha}"], None
                if not 0.0 <= coverage <= 1.0 or abs(count - round(count)) > 1e-6:
                    return [f"coverage {c!r} is not a hit frequency over {self.reps} reps"], None
                hits.append(round(count))
            return [], np.array(hits)
        except (ValueError, IndexError) as exc:
            return [f"malformed coverage table: {exc}"], None

    def check_pooled(self, samples: list[np.ndarray]) -> list[str]:
        """Pooled coverage within ``0.05 + 4 se`` of every alpha (criterion 6)."""
        total = len(samples) * self.reps
        pooled = np.sum(samples, axis=0) / total
        errors = []
        for alpha, p in zip(self.alphas, pooled):
            band = COVERAGE_SLACK + BAND_SIGMAS * math.sqrt(alpha * (1.0 - alpha) / total)
            if abs(p - alpha) > band:
                errors.append(f"pooled coverage {p:.4f} at alpha {alpha} outside +-{band:.4f}")
        return errors


SIMULATE_HEADER = ["kind", "rep", "normalized_monte_carlo", "normalized_closed_form"]


@dataclass(frozen=True)
class SimulateWorkload:
    """``simulate-pw`` on the uniform density; each op gets its own ``--seed``."""

    name: str
    n: int
    dm: int
    nb: int
    reps: int

    def sizes(self) -> dict:
        return {"n": self.n, "dm": self.dm, "nb": self.nb, "reps": self.reps}

    def prepare(self, index: int, seed: int, work: Path) -> Op:
        out = work / "out.csv"
        argv = [
            "simulate-pw", "--seed", str(seed), "--out", str(out),
            "--n", str(self.n), "--dm", str(self.dm), "--nb", str(self.nb), "--reps", str(self.reps),
        ]
        return Op(index, seed, argv, out)

    def check(self, op: Op, output: bytes) -> tuple[list[str], np.ndarray | None]:
        """Finite draw rows and a summary that matches them; returns the draws."""
        try:
            rows = _read_csv(output)
            draw_rows, summary = rows[1 : 1 + self.reps], rows[1 + self.reps :]
            if rows[0] != SIMULATE_HEADER or len(draw_rows) != self.reps or len(summary) != 4:
                return [f"unexpected simulate-pw table shape/header {rows[:1]}"], None
            if any(r[:2] != ["draw", str(j)] for j, r in enumerate(draw_rows)):
                return ["draw rows are not numbered 0..reps-1"], None
            draws = np.array([[_finite(r[2]), _finite(r[3])] for r in draw_rows])
            if [r[:2] for r in summary] != [["mean", ""], ["sd", ""], ["min", ""], ["max", ""]]:
                return ["summary rows are not mean/sd/min/max"], None
            stats = np.array([[_finite(r[2]), _finite(r[3])] for r in summary])
        except (ValueError, IndexError) as exc:
            return [f"malformed simulate-pw table: {exc}"], None
        expected = (draws.mean(axis=0), draws.std(axis=0, ddof=1), draws.min(axis=0), draws.max(axis=0))
        scale = np.abs(draws).max(axis=0)
        errors = [
            f"summary {name} {got} != {want}"
            for name, got, want in zip(("mean", "sd", "min", "max"), stats, expected)
            if not all(_close(g, w, s) for g, w, s in zip(got, want, scale))
        ]
        return errors, draws

    def check_pooled(self, samples: list[np.ndarray]) -> list[str]:
        """Pooled mean of both columns within 4 se of 0 (criterion 5).

        Both normalized differences have mean exactly 0: the closed-form one
        is a centered U-statistic and the Monte Carlo one averages to it.
        """
        draws = np.concatenate(samples)
        mean, se = draws.mean(axis=0), draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        return [
            f"pooled {name} mean {m:.4f} outside +-{BAND_SIGMAS * s:.4f}"
            for name, m, s in zip(SIMULATE_HEADER[2:], mean, se)
            if abs(m) > BAND_SIGMAS * s
        ]


WORKLOADS = {
    w.name: w
    for w in (
        BallWorkload("ball-hist", "histogram", tuple(2**k for k in range(9)), 4000),
        BallWorkload("ball-fourier", "fourier", tuple(range(1, 62, 2)), 2000),
        CoverageWorkload("coverage", n=100, dm=50, nb=10_000, reps=12),
        SimulateWorkload("simulate-pw", n=50, dm=10, nb=100, reps=1000),
    )
}
