"""Projection estimators and the quadratic-functional estimators around them.

For a sample ``X_1..X_n`` and an orthonormal system ``psi_0..psi_{d-1}``,
the projection estimator has coefficients ``mean_i psi_l(X_i)``.  Around it
this module provides:

* ``resampling_variance`` -- the exchangeable-weights estimator of the
  squared distance between the projection of the density and its estimator,
  evaluated in closed form:

      (1 / (n (n-1))) sum_l sum_i (psi_l(X_i) - mean_i psi_l(X_i))^2

  which equals the normalized conditional expectation of the reweighted
  statistic for *every* exchangeable scheme, so Monte Carlo and exact
  enumeration versions exist purely as cross-checks and to reproduce the
  simulation protocol.

* ``projection_bias_estimate`` -- the order-two U-statistic over the basis
  indices separating two nested models; it estimates the squared bias
  between the two projections without bias of its own and may be negative.

* ``centered_u_statistic`` / ``projection_error_sq`` -- oracle-centered
  quantities used to validate the algebraic decomposition
  ``projection_error_sq - resampling_variance = centered_u_statistic``.

These per-model functions are the references for the one-pass statistics
of :func:`densityball.ball.build_confidence_ball`, which obtains every
model's variance and bias estimate and the selected center from a single
evaluation of the top basis.

Reductions are plain numpy sums and dot products; row sums are pairwise,
so their rounding grows as O(eps log n).  Coefficients come from
:meth:`~densityball.basis.Model.basis_sums`, which for a histogram is
``sqrt(m)`` times its integer cell counts, so the projection equals the
count formula of :mod:`densityball.experiments` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import density_gram
from .basis import Model
from .weights import WeightScheme, enumerate_weights, sample_weights_batch


def check_unit_interval(points: np.ndarray) -> None:
    """Refuse points outside [0, 1], NaN included, with a ``ValueError``."""
    if not np.all((points >= 0.0) & (points <= 1.0)):
        raise ValueError("sample points must lie in [0, 1]")


@dataclass(frozen=True)
class Sample:
    """An i.i.d. sample of points in [0, 1]; immutable once built."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).copy()
        if pts.ndim != 1:
            raise ValueError("sample points must form a 1-d sequence")
        if pts.size < 2:
            raise ValueError("need at least two observations")
        check_unit_interval(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class ProjectionEstimate:
    """Basis coefficients of the projection estimator on one model."""

    model: Model
    coefficients: np.ndarray


def project(sample: Sample, model: Model) -> ProjectionEstimate:
    """Projection estimator: coefficient ``l`` is ``mean_i psi_l(X_i)``.

    Equivalently the minimizer of ``||t||^2 - 2 mean_i t(X_i)`` over the
    model.
    """
    coeffs = model.basis_sums(sample.points)[0] / sample.n
    coeffs.flags.writeable = False
    return ProjectionEstimate(model=model, coefficients=coeffs)


def _check_scheme(sample: Sample, scheme: WeightScheme) -> None:
    if scheme.n != sample.n:
        raise ValueError(f"scheme size {scheme.n} does not match sample size {sample.n}")


def resampling_variance(sample: Sample, model: Model) -> float:
    """Closed form of the resampling estimator of the estimation error.

    The value is the same for every exchangeable scheme with the canonical
    normalizer, so no scheme is needed.  Always nonnegative.
    """
    n = sample.n
    dev = model.basis_matrix(sample.points)
    dev -= dev.mean(axis=1, keepdims=True)
    return float(np.einsum("ij,ij->", dev, dev)) / (n * (n - 1.0))


def resampling_statistics(
    sample: Sample, model: Model, scheme: WeightScheme, weights: np.ndarray
) -> np.ndarray:
    """Normalized reweighted statistic for each given weight vector.

    ``weights`` has shape ``(batch, n)``; the result has shape ``(batch,)``
    with entries ``normalizer * sum_l ((1/n) sum_i (W_i - mean W) psi_l(X_i))^2``.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    if w.shape[1] != sample.n:
        raise ValueError("weight vectors must have length n")
    psi = model.basis_matrix(sample.points)
    centered = w - w.mean(axis=1, keepdims=True)
    proj = centered @ psi.T / sample.n
    return scheme.normalizer * np.einsum("ij,ij->i", proj, proj)


def resampling_variance_monte_carlo(
    sample: Sample,
    model: Model,
    scheme: WeightScheme,
    n_draws: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo version of :func:`resampling_variance` over weight draws.

    Mirrors the simulation protocol; converges to the closed form as the
    number of draws grows.  The reduction is an ordered mean, so a fixed
    generator state gives a bit-reproducible value.
    """
    if n_draws < 1:
        raise ValueError("need at least one draw")
    _check_scheme(sample, scheme)
    draws = sample_weights_batch(scheme, n_draws, rng)
    stats = resampling_statistics(sample, model, scheme, draws)
    return float(np.mean(stats))


def resampling_variance_enumerated(sample: Sample, model: Model, scheme: WeightScheme) -> float:
    """Exact expectation over the enumerated weight support (small n only)."""
    _check_scheme(sample, scheme)
    support = enumerate_weights(scheme)
    stacked = np.stack([w for w, _ in support])
    probs = np.array([p for _, p in support])
    stats = resampling_statistics(sample, model, scheme, stacked)
    return float(probs @ stats)


def projection_bias_estimate(sample: Sample, sub_model: Model, top_model: Model) -> float:
    """Unbiased U-statistic estimate of the squared bias between projections.

    Runs over the basis indices of ``top_model`` beyond ``sub_model.dim``:

        (1 / (n (n-1))) sum_{i != j} sum_l psi_l(X_i) psi_l(X_j)

    computed in O(n d) as ``sum_l ((sum_i psi_l)^2 - sum_i psi_l^2)``.
    The value can be negative; no clamping is applied.
    """
    if not sub_model.shares_prefix_with(top_model):
        raise ValueError(
            f"{sub_model.label} is not nested in {top_model.label} (no shared index prefix)"
        )
    if sub_model.dim == top_model.dim:
        return 0.0
    n = sample.n
    psi = top_model.basis_matrix(sample.points)[sub_model.dim :]
    sums = psi.sum(axis=1)
    return float(sums @ sums - np.einsum("ij,ij->", psi, psi)) / (n * (n - 1.0))


def centered_u_statistic(sample: Sample, model: Model, oracle) -> float:
    """Totally degenerate order-two U-statistic centered at the true coefficients.

    With ``a_li = psi_l(X_i) - E psi_l(X)`` this is

        (1 / (n (n-1))) sum_{i != j} sum_l a_li a_lj,

    which has mean zero and equals ``projection_error_sq`` minus
    ``resampling_variance`` exactly.
    """
    n = sample.n
    true = np.asarray(oracle.true_coefficients(model), dtype=float)
    dev = model.basis_matrix(sample.points)
    dev -= true[:, None]
    sums = dev.sum(axis=1)
    return float(sums @ sums - np.einsum("ij,ij->", dev, dev)) / (n * (n - 1.0))


def projection_error_sq(sample: Sample, model: Model, oracle) -> float:
    """Squared distance between the true projection and its estimator.

    ``sum_l (mean_i psi_l(X_i) - E psi_l(X))^2``, computable exactly when an
    oracle supplies the true coefficients.
    """
    est = project(sample, model).coefficients
    true = np.asarray(oracle.true_coefficients(model), dtype=float)
    diff = est - true
    return float(diff @ diff)


# ---------------------------------------------------------------------------
# Diagnostics for the centered system under a known density: the summed
# coordinate variance, the sup norm of the unit coefficient ball, and a lower
# estimate of the largest centered variance over that ball.  Together they
# satisfy  v^2 <= min(sup s, c1 ||s|| sqrt(d))  and  v^2 <= D <= b^2 <= c1^2 d.
# ---------------------------------------------------------------------------


def coordinate_variance_total(model: Model, oracle, order: int = 16) -> float:
    """``D = sum_l Var_s(psi_l(X))`` by quadrature against the density."""
    gram, moments = density_gram(model, oracle, order=order)
    return float(np.trace(gram) - moments @ moments)


def unit_ball_sup_norm(model: Model, grid_points: int = 4096) -> float:
    """``b = sup_x sqrt(sum_l psi_l(x)^2)`` over a grid including breakpoints."""
    bps = model.breakpoints()
    xs = np.unique(
        np.concatenate([np.linspace(0.0, 1.0, grid_points), bps, (bps[:-1] + bps[1:]) / 2.0])
    )
    psi = model.basis_matrix(xs)
    return math.sqrt(float(np.max(np.einsum("ij,ij->j", psi, psi))))


def max_unit_variance_lower(
    model: Model,
    oracle,
    n_vectors: int = 10_000,
    rng: np.random.Generator | None = None,
    order: int = 16,
) -> float:
    """Random-search lower estimate of ``sup_{||a||<=1} Var_s(sum a_l psi_l)``.

    A lower estimate by construction, so it is suitable only for checking
    upper bounds.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    gram, moments = density_gram(model, oracle, order=order)
    coef = rng.standard_normal((n_vectors, model.dim))
    norms = np.linalg.norm(coef, axis=1)
    norms[norms == 0] = 1.0
    coef /= norms[:, None]
    second = np.einsum("ij,jk,ik->i", coef, gram, coef)
    first = coef @ moments
    return float(np.max(second - first * first))
