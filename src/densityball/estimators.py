"""Projection estimators and the quadratic-functional estimators around them.

For a sample ``X_1..X_n`` and an orthonormal system ``psi_0..psi_{d-1}``,
the projection estimator has coefficients ``mean_i psi_l(X_i)``.  The
estimators around it are functions of the per-coefficient sums
``S_l = sum_i psi_l(X_i)`` and ``Q_l = sum_i psi_l(X_i)^2`` of
:meth:`~densityball.basis.Model.basis_sums`, and :func:`prefix_estimates`
computes them for every leading block of indices at once:

* the closed-form resampling variance, the normalized conditional
  expectation of the reweighted statistic for *every* exchangeable scheme
  (exact enumeration cross-checks it);
* the nested-bias U-statistic over the indices separating two nested
  models, unbiased for the squared bias between their projections and
  possibly negative;
* the U-statistic centered at the true coefficients, which validates
  ``projection_error_sq - resampling_variance = centered_u_statistic``.

:func:`~densityball.ball.build_confidence_ball` calls it on the sums of a
collection's top model; ``resampling_variance``, ``projection_bias_estimate``
and ``centered_u_statistic`` are views of it on one model's sums, so they
equal the ball's rows bit for bit.  Only the reweighted statistic of given
weight vectors needs the basis itself, chunk by chunk of points.

Reductions are plain numpy sums and dot products; row sums are pairwise,
so their rounding grows as O(eps log n).  For a histogram the sums are
``sqrt(m)`` times integer cell counts, so the projection equals the count
formula of :mod:`densityball.experiments` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._quadrature import density_gram
from .basis import Model
from .weights import WeightScheme, enumerate_weights


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


def prefix_estimates(
    sums: np.ndarray, squares: np.ndarray, n: int, dims: Sequence[int], true: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Variance, bias and centered estimates of the leading blocks of ``dims`` indices.

    ``sums`` and ``squares`` are ``S`` and ``Q`` of a sample of ``n`` points,
    and ``true`` the true coefficients of the same indices.  For each ``d``
    of ``dims``, all divided by ``n (n - 1)``:

    * variance: the sum over ``l < d`` of ``max(Q_l - S_l^2 / n, 0)``;
    * bias: the sum over ``l >= d`` of ``S_l^2 - Q_l``, 0 at ``d = len(sums)``;
    * centered: the sum over ``l < d`` of
      ``(S_l - n t_l)^2 - (Q_l - 2 t_l S_l + n t_l^2)``, or ``None`` without ``true``.
    """
    dims = np.asarray(dims)
    pairs = n * (n - 1.0)
    variance = np.cumsum(np.maximum(squares - sums * sums / n, 0.0))[dims - 1] / pairs
    # suffix[d] = sum over l >= d of the off-diagonal terms; 0 at the top model
    suffix = np.append(np.cumsum((sums * sums - squares)[::-1])[::-1], 0.0)
    bias = suffix[dims] / pairs
    if true is None:
        return variance, bias, None
    dev = sums - n * true
    # sum_i (psi_l(X_i) - t_l)^2 = Q_l - 2 t_l S_l + n t_l^2
    centered = np.cumsum(dev * dev - (squares - 2.0 * true * sums + n * true * true))[dims - 1] / pairs
    return variance, bias, centered


def resampling_variance(sample: Sample, model: Model) -> float:
    """Closed form of the resampling estimator of the estimation error.

    The value is the same for every exchangeable scheme with the canonical
    normalizer, so no scheme is needed.  Always nonnegative.
    """
    sums, squares = model.basis_sums(sample.points)
    return float(prefix_estimates(sums, squares, sample.n, [model.dim])[0][0])


def resampling_statistics(
    sample: Sample, model: Model, scheme: WeightScheme, weights: np.ndarray
) -> np.ndarray:
    """Normalized reweighted statistic for each given weight vector.

    ``weights`` has shape ``(batch, n)``; the result has shape ``(batch,)``
    with entries ``normalizer * sum_l ((1/n) sum_i (W_i - mean W) psi_l(X_i))^2``.
    The basis is evaluated chunk by chunk of points.
    """
    _check_scheme(sample, scheme)
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    if w.shape[1] != sample.n:
        raise ValueError("weight vectors must have length n")
    centered = w - w.mean(axis=1, keepdims=True)
    proj = np.zeros((w.shape[0], model.dim))
    for columns, psi in model.basis_chunks(sample.points):
        proj += centered[:, columns] @ psi.T
    proj /= sample.n
    return scheme.normalizer * np.einsum("ij,ij->i", proj, proj)


def resampling_variance_enumerated(sample: Sample, model: Model, scheme: WeightScheme) -> float:
    """Exact expectation over the enumerated weight support (small n only)."""
    support = enumerate_weights(scheme)
    stacked = np.stack([w for w, _ in support])
    probs = np.array([p for _, p in support])
    stats = resampling_statistics(sample, model, scheme, stacked)
    return float(probs @ stats)


def projection_bias_estimate(sample: Sample, sub_model: Model, top_model: Model) -> float:
    """Unbiased U-statistic estimate of the squared bias between projections.

    Runs over the basis indices of ``top_model`` beyond ``sub_model.dim``:

        (1 / (n (n-1))) sum_{i != j} sum_l psi_l(X_i) psi_l(X_j)

    computed in O(n d) as ``sum_l (S_l^2 - Q_l)``.  The value can be
    negative; no clamping is applied.
    """
    if not sub_model.shares_prefix_with(top_model):
        raise ValueError(
            f"{sub_model.label} is not nested in {top_model.label} (no shared index prefix)"
        )
    sums, squares = top_model.basis_sums(sample.points)
    return float(prefix_estimates(sums, squares, sample.n, [sub_model.dim])[1][0])


def centered_u_statistic(sample: Sample, model: Model, oracle) -> float:
    """Totally degenerate order-two U-statistic centered at the true coefficients.

    With ``a_li = psi_l(X_i) - E psi_l(X)`` this is

        (1 / (n (n-1))) sum_{i != j} sum_l a_li a_lj,

    which has mean zero and equals ``projection_error_sq`` minus
    ``resampling_variance`` exactly.
    """
    true = np.asarray(oracle.true_coefficients(model), dtype=float)
    sums, squares = model.basis_sums(sample.points)
    return float(prefix_estimates(sums, squares, sample.n, [model.dim], true)[2][0])


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
# Diagnostic for the centered system under a known density: the largest
# centered variance over the unit coefficient ball.  With the summed
# coordinate variance D and b = basis.unit_ball_sup_norm it satisfies
#   v^2 <= min(sup s, c1 ||s|| sqrt(d))  and  v^2 <= D <= b^2 <= c1^2 d.
# ---------------------------------------------------------------------------


def max_unit_variance(model: Model, oracle) -> float:
    """``v^2 = sup_{||a||<=1} Var_s(sum_l a_l psi_l(X))`` by quadrature against the density.

    The variance along ``a`` is ``a^T (G - m m^T) a`` with ``G`` the Gram
    matrix and ``m`` the first moments of the basis under the density, so
    the supremum is the top eigenvalue of that covariance matrix.
    """
    gram, moments = density_gram(model, oracle)
    return float(np.linalg.eigvalsh(gram - np.outer(moments, moments))[-1])
