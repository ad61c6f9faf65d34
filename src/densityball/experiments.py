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
statistic is ``normalizer (d / n^2) sum_k (A_k - mean(W) c_k)^2``.  So a
replication costs O(nb n) integer work to draw and aggregate the weights
(:func:`densityball.weights.sample_cell_weights`, whose memory is capped
by its draw chunk) plus O(nb d) float work, and the true coefficients are
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

from .ball import order_statistic_rank
from .basis import HistogramModel
from .estimators import Sample
from .oracle import DensityOracle
from .weights import WeightKind, WeightScheme, make_scheme, replication_rng, sample_cell_weights

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


def cell_error_sq(counts: np.ndarray, true_coefficients: np.ndarray) -> float:
    """Squared projection error of a histogram from its cell counts.

    Equals ``projection_error_sq`` on the ``HistogramModel`` with
    ``counts.size`` cells bit for bit: both take the coefficients
    ``sqrt(d) c_k / n`` from the integer counts and reduce the same way.
    """
    diff = math.sqrt(counts.size) * counts / counts.sum() - true_coefficients
    return float(diff @ diff)


def cell_resampling_variance(counts: np.ndarray) -> float:
    """Closed-form resampling variance of a histogram from its cell counts.

    ``d (n - sum_k c_k^2 / n) / (n (n - 1))``, equal to
    ``resampling_variance``; the numerator is exact in integers.
    """
    n, d = int(counts.sum()), counts.size
    return d * (n * n - int(counts @ counts)) / (n * n * (n - 1.0))


def cell_resampling_statistics(
    counts: np.ndarray, cell_weights: np.ndarray, scheme: WeightScheme
) -> np.ndarray:
    """Reweighted statistics of a histogram from per-cell weight sums.

    ``cell_weights`` has shape ``(batch, d)`` (see
    :func:`densityball.weights.sample_cell_weights`); entry ``r`` of the
    result is ``normalizer (d / n^2) sum_k (A_rk - mean(W_r) c_k)^2``, equal to
    ``resampling_statistics`` for the per-point weights behind ``A_r``.
    """
    n, d = scheme.n, counts.size
    dev = np.multiply.outer(cell_weights.sum(axis=1) / n, counts)
    np.subtract(cell_weights, dev, out=dev)  # one (batch, d) temporary, not two
    return scheme.normalizer * (d / (n * n)) * np.einsum("ij,ij->i", dev, dev)


def _histogram_replications(oracle: DensityOracle, n: int, dim: int, reps: int, seed: int):
    """Per replication: its generator, the cell of each point, the cell counts.

    The generator has drawn the sample and is ready for the weight draws.
    """
    model = HistogramModel(dim)
    for j in range(reps):
        rng = replication_rng(seed, j)
        cells = model.cell_index(Sample(oracle.sample_points(n, rng)).points)
        yield rng, cells, np.bincount(cells, minlength=dim)


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
    if reps < 1:
        raise ValueError("need at least one replication")
    scheme = make_scheme(kind, n)
    true = oracle.true_coefficients(HistogramModel(dim))
    scale = n / math.sqrt(dim)
    mc = np.empty(reps)
    cf = np.empty(reps)
    for j, (rng, cells, counts) in enumerate(_histogram_replications(oracle, n, dim, reps, seed)):
        error = cell_error_sq(counts, true)
        weights = sample_cell_weights(scheme, cells, dim, n_draws, rng)
        mc[j] = scale * (error - float(np.mean(cell_resampling_statistics(counts, weights, scheme))))
        cf[j] = scale * (error - cell_resampling_variance(counts))
    return NormalizedDifferenceResult(monte_carlo=mc, closed_form=cf)


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
    if reps < 1:
        raise ValueError("need at least one replication")
    scheme = make_scheme(kind, n)
    true = oracle.true_coefficients(HistogramModel(dim))
    ranks = np.array([order_statistic_rank(a, n_draws) for a in alphas])
    hits = np.zeros(len(alphas))
    for rng, cells, counts in _histogram_replications(oracle, n, dim, reps, seed):
        error = cell_error_sq(counts, true)
        weights = sample_cell_weights(scheme, cells, dim, n_draws, rng)
        stats = np.sort(cell_resampling_statistics(counts, weights, scheme))
        hits += error <= stats[ranks - 1]
    return [(a, float(h / reps)) for a, h in zip(alphas, hits)]
