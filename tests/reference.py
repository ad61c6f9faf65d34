"""Dense definitions the tests hold the library's estimators against.

The library takes every variance, bias and centered estimate from the
per-coefficient sums ``S`` and ``Q`` (``densityball.estimators.prefix_estimates``).
The functions here restate each one from its definition on the basis matrix
``psi[l, i] = psi_l(X_i)``, evaluated in chunks of points so that memory
stays O(chunk) at any sample size, and the sums ``S`` and ``Q`` themselves.
Also here: helpers with no caller in the library (one weight vector, the
Monte Carlo resampling variance, Helmert contrasts, the summed coordinate
variance).
"""

import math

import numpy as np

from densityball._quadrature import density_gram
from densityball.estimators import resampling_statistics
from densityball.weights import sample_weights_batch

# Basis entries per chunk of points.
CHUNK_ENTRIES = 2**20


def basis_chunks(model, points):
    """``model.basis_matrix`` at consecutive chunks of ``points``."""
    step = max(CHUNK_ENTRIES // model.dim, 1)
    for start in range(0, points.size, step):
        yield model.basis_matrix(points[start : start + step])


def basis_sums(model, points):
    """``S_l = sum_i psi_l(X_i)`` and ``Q_l = sum_i psi_l(X_i)^2``, each basis function evaluated at every point."""
    sums = np.zeros(model.dim)
    squares = np.zeros(model.dim)
    for psi in basis_chunks(model, points):
        sums += psi.sum(axis=1)
        squares += np.einsum("ij,ij->i", psi, psi)
    return sums, squares


def resampling_variance(sample, model):
    """``sum_l sum_i (psi_l(X_i) - mean_i psi_l(X_i))^2 / (n (n-1))``, centered before squaring."""
    n = sample.n
    mean = sum(psi.sum(axis=1) for psi in basis_chunks(model, sample.points)) / n
    total = 0.0
    for psi in basis_chunks(model, sample.points):
        dev = psi - mean[:, None]
        total += float(np.einsum("ij,ij->", dev, dev))
    return total / (n * (n - 1.0))


def _off_diagonal(sample, model, shift, rows):
    """``sum_{i != j} sum_l a_li a_lj / (n (n-1))`` with ``a = psi[rows] - shift``."""
    n = sample.n
    sums, squares = 0.0, 0.0
    for psi in basis_chunks(model, sample.points):
        dev = psi[rows] - shift[:, None]
        sums = sums + dev.sum(axis=1)
        squares += float(np.einsum("ij,ij->", dev, dev))
    return float(sums @ sums - squares) / (n * (n - 1.0))


def projection_bias_estimate(sample, sub_model, top_model):
    """The U-statistic over the indices of ``top_model`` beyond ``sub_model.dim``."""
    if not sub_model.shares_prefix_with(top_model):
        raise ValueError(f"{sub_model.label} is not nested in {top_model.label}")
    rows = slice(sub_model.dim, top_model.dim)
    return _off_diagonal(sample, top_model, np.zeros(top_model.dim - sub_model.dim), rows)


def centered_u_statistic(sample, model, oracle):
    """The U-statistic of ``psi_l(X_i) - E psi_l(X)`` over every index of ``model``."""
    true = np.asarray(oracle.true_coefficients(model), dtype=float)
    return _off_diagonal(sample, model, true, slice(None))


def coordinate_variance_total(model, oracle):
    """``D = sum_l Var_s(psi_l(X))`` by quadrature against the density."""
    gram, moments = density_gram(model, oracle)
    return float(np.trace(gram) - moments @ moments)


def sample_weights(scheme, rng):
    """One weight vector of length ``scheme.n``."""
    return sample_weights_batch(scheme, 1, rng)[0]


def resampling_variance_monte_carlo(sample, model, scheme, n_draws, rng):
    """Mean of the reweighted statistic over ``n_draws`` weight draws.

    Converges to the closed form as the number of draws grows; a fixed
    generator state gives a bit-reproducible value.
    """
    if n_draws < 1:
        raise ValueError("need at least one draw")
    draws = sample_weights_batch(scheme, n_draws, rng)
    return float(np.mean(resampling_statistics(sample, model, scheme, draws)))


def helmert_contrasts(r):
    """Orthonormal contrast vectors of length ``r``, shape ``(r - 1, r)``.

    The rows are mutually orthonormal and each is orthogonal to the constant
    vector, so together with ``(1, ..., 1)/sqrt(r)`` they form an orthonormal
    basis of R^r.
    """
    if r < 2:
        raise ValueError("contrasts need r >= 2")
    h = np.zeros((r - 1, r))
    for level in range(1, r):
        scale = 1.0 / math.sqrt(level * (level + 1))
        h[level - 1, :level] = scale
        h[level - 1, level] = -level * scale
    return h
