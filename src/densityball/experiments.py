"""Seeded Monte Carlo experiments around the resampling variance estimator.

Two studies ship, both on histogram models:

* ``normalized_difference_experiment`` repeats, for fresh samples, the
  normalized difference ``n (error - estimate) / sqrt(dim)`` between the
  exact squared projection error and the resampling estimate (Monte Carlo
  over weight draws, and closed form as a second column).  Its empirical
  distribution is expected to be stable across sample sizes and dimensions.

* ``coverage_experiment`` checks how often the exact squared projection
  error falls below the empirical alpha-quantile of the reweighted
  statistic's conditional distribution, for a grid of alpha levels; the
  curve should hug the diagonal.

Every replication draws from an independent stream keyed by
``(seed, replication)``, and reductions preserve replication order, so a
fixed seed reproduces results bit for bit regardless of scheduling.

For a regular histogram with ``d`` cells every quantity a replication needs
is a function of the cell counts ``c`` and, per weight draw, of the per-cell
weight sums ``A``: the estimated coefficients are ``sqrt(d) c / n``, the
closed form is ``d (n - sum c^2 / n) / (n (n - 1))``, and the reweighted
statistic is ``normalizer (d / n^2) sum_k (A_k - mean(W) c_k)^2``; with
Efron weights ``mean(W) = 1`` exactly, so ``A - c`` and its square sum are
integers.  Per replication only its sample and its integer weight draws are
made; the streams of a block of replications are seeded in one vectorised
pass (:func:`densityball.weights.replication_rngs`), and the rest runs as
array operations.  A block holds as many replications as keep the per-cell
weight sums of all their draws, and their sample points, within about
``2**16`` values each, at most ``2**10``; sample validation, cell indices, cell counts, exact errors and
closed forms run once per block.
:class:`densityball.weights.CellWeightDrawer` draws its weights in groups of
about ``2**16`` weight entries, each holding the draws of as many whole
replications as fit, or a slice of the draws of one replication when they do
not fit; per-cell weight sums and reweighted statistics run once per group.
The floor is then the draws and their aggregation: at the README
``simulate-pw`` configuration about half the time goes to the integer draws
(one ``integers`` call per replication) and a quarter to their per-cell sums,
and seeding takes about 5%.  Memory stays
O(chunk * (1 + dm / n) + n + nb), and the true coefficients are
computed once per experiment.  The integer draws are the ones the per-point
weights would take, so the seeded stream is that of the per-point
estimators of :mod:`densityball.estimators`, which serve as references.
:func:`~densityball.estimators.project` takes a histogram's coefficients
from the same integer counts, so the exact error here equals
``projection_error_sq`` bit for bit without any compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import HistogramModel
from .oracle import DensityOracle
from .weights import (
    CellWeightDrawer,
    WeightKind,
    WeightScheme,
    make_scheme,
    replication_rngs,
)

DEFAULT_SEED = 4


@dataclass(frozen=True)
class NormalizedDifferenceResult:
    """Per-replication normalized differences, Monte Carlo vs closed form."""

    monte_carlo: np.ndarray
    closed_form: np.ndarray

    def summary(self) -> dict[str, tuple[float, float]]:
        """(mean, sd, min, max) per column, keyed by column name."""
        out = {}
        for name, col in (("monte_carlo", self.monte_carlo), ("closed_form", self.closed_form)):
            out[name] = (
                float(np.mean(col)),
                float(np.std(col, ddof=1)) if col.size > 1 else 0.0,
                float(np.min(col)),
                float(np.max(col)),
            )
        return out


def cell_error_sq(counts: np.ndarray, true_coefficients: np.ndarray) -> np.ndarray:
    """Squared projection error of a histogram from its cell counts.

    ``counts`` has shape ``(..., d)``, one row per sample.  Each entry equals
    ``projection_error_sq`` on the ``HistogramModel`` with ``d`` cells bit for
    bit: both take the coefficients ``sqrt(d) c_k / n`` from the integer
    counts and reduce with the same dot product (``matmul`` of a row by a
    column, which rounds as ``diff @ diff`` does; ``einsum`` does not).
    """
    diff = math.sqrt(counts.shape[-1]) * counts / counts.sum(axis=-1, keepdims=True) - true_coefficients
    return np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0]


def cell_resampling_variance(counts: np.ndarray) -> np.ndarray:
    """Closed-form resampling variance of a histogram from its cell counts.

    ``d (n - sum_k c_k^2 / n) / (n (n - 1))`` per row of ``counts``, equal to
    ``resampling_variance``; the numerator is exact in integers.
    """
    n, d = counts.sum(axis=-1), counts.shape[-1]
    return d * (n * n - (counts * counts).sum(axis=-1)) / (n * n * (n - 1.0))


def cell_resampling_statistics(
    counts: np.ndarray, cell_weights: np.ndarray, scheme: WeightScheme
) -> np.ndarray:
    """Reweighted statistics of a histogram from per-cell weight sums.

    ``counts`` has shape ``(..., d)`` and ``cell_weights`` shape
    ``(..., batch, d)`` (see :class:`densityball.weights.CellWeightDrawer`);
    entry ``r`` of a sample's row of the result is
    ``normalizer (d / n^2) sum_k (A_rk - mean(W_r) c_k)^2``, equal to
    ``resampling_statistics`` for the per-point weights behind ``A_r``.
    """
    n, d = scheme.n, counts.shape[-1]
    if scheme.kind is WeightKind.EFRON_MULTINOMIAL:
        # mean(W) = 1 exactly: integer sums give integer deviations, squared and summed exactly
        dev = np.subtract(cell_weights, counts[..., None, :])
    else:
        dev = cell_weights.sum(axis=-1, keepdims=True) / n * counts[..., None, :]
        np.subtract(cell_weights, dev, out=dev)  # one (..., batch, d) temporary, not two
    rows = dev.reshape(-1, d)
    return (scheme.normalizer * (d / (n * n)) * np.einsum("ij,ij->i", rows, rows)).reshape(dev.shape[:-1])


def _cell_counts(cells: np.ndarray, n_cells: int) -> np.ndarray:
    """Points per cell of each row of ``cells``, shape ``(rows, n_cells)``.

    Row ``a`` is shifted by ``a * n_cells`` so that one ``bincount`` counts
    every row.
    """
    rows = cells.shape[0]
    shifted = cells + n_cells * np.arange(rows)[:, None]
    return np.bincount(shifted.ravel(), minlength=rows * n_cells).reshape(rows, n_cells)


def order_statistic_rank(level: float, count: int) -> int:
    """Rank ``ceil(level * count)`` in 1..count, robust to float fuzz."""
    t = level * count
    nearest = round(t)
    if abs(t - nearest) < 1e-9:
        t = nearest
    return min(max(int(math.ceil(t)), 1), count)


def _check_reps(reps: int) -> None:
    if reps < 1:
        raise ValueError("need at least one replication")
    if reps > 2**32:  # a replication's stream key is one 32-bit word
        raise ValueError("at most 2**32 replications")


def _replication_blocks(
    oracle: DensityOracle, scheme: WeightScheme, dim: int, n_draws: int, reps: int, seed: int
):
    """Per block of consecutive replications: cell counts ``(g, dim)`` and statistics ``(g, n_draws)``.

    Per replication only its sample and (inside :class:`CellWeightDrawer`)
    its weight draws are made; the generators of a block are seeded in one
    vectorised pass, and the rest is one array operation per block or per
    draw group of the drawer.
    """
    n = scheme.n
    model = HistogramModel(dim)
    drawer = CellWeightDrawer(scheme, dim, n_draws)
    for first in range(0, reps, drawer.samples):
        rngs = replication_rngs(seed, range(first, min(first + drawer.samples, reps)))
        points = np.stack([oracle.sample_points(n, rng) for rng in rngs])
        cells = model.cell_index(points)
        counts = _cell_counts(cells, dim)
        stats = np.empty((len(rngs), n_draws))
        for a, start, sums in drawer.blocks(rngs, cells, counts):
            group, block = sums.shape[:2]
            group_counts = counts[a : a + group]
            stats[a : a + group, start : start + block] = cell_resampling_statistics(group_counts, sums, scheme)
        yield counts, stats


def normalized_difference_experiment(
    oracle: DensityOracle,
    n: int,
    dim: int,
    n_draws: int,
    reps: int,
    seed: int = DEFAULT_SEED,
    kind: WeightKind | str = WeightKind.EFRON_MULTINOMIAL,
) -> NormalizedDifferenceResult:
    """Replicate ``n (error - estimate) / sqrt(dim)`` on fresh samples."""
    _check_reps(reps)
    scheme = make_scheme(kind, n)
    true = oracle.true_coefficients(HistogramModel(dim))
    scale = n / math.sqrt(dim)
    mc, cf = [], []
    for counts, stats in _replication_blocks(oracle, scheme, dim, n_draws, reps, seed):
        error = cell_error_sq(counts, true)
        mc.append(scale * (error - stats.mean(axis=1)))
        cf.append(scale * (error - cell_resampling_variance(counts)))
    return NormalizedDifferenceResult(monte_carlo=np.concatenate(mc), closed_form=np.concatenate(cf))


def coverage_experiment(
    oracle: DensityOracle,
    n: int,
    dim: int,
    n_draws: int,
    reps: int,
    alphas,
    seed: int = DEFAULT_SEED,
    kind: WeightKind | str = WeightKind.EFRON_MULTINOMIAL,
) -> list[tuple[float, float]]:
    """Empirical coverage of the resampled quantile threshold per alpha.

    For each replication the exact squared projection error is compared to
    the order statistic of rank ``ceil(alpha * n_draws)`` of the reweighted
    statistics; rows come back as ``(alpha, frequency)`` in alpha order.
    """
    alphas = sorted(float(a) for a in alphas)
    if not alphas:
        raise ValueError("need at least one alpha level")
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise ValueError("alpha levels must lie in (0, 1)")
    _check_reps(reps)
    scheme = make_scheme(kind, n)
    true = oracle.true_coefficients(HistogramModel(dim))
    ranks = np.array([order_statistic_rank(a, n_draws) for a in alphas])
    hits = np.zeros(len(alphas), dtype=np.int64)
    for counts, stats in _replication_blocks(oracle, scheme, dim, n_draws, reps, seed):
        stats.sort(axis=1)
        hits += np.sum(cell_error_sq(counts, true)[:, None] <= stats[:, ranks - 1], axis=0)
    return [(a, float(h / reps)) for a, h in zip(alphas, hits)]
