"""Dense definitions the tests hold the library's estimators against.

The library takes every variance, bias and centered estimate from the
per-coefficient sums ``S`` and ``Q`` (``densityball.estimators.prefix_estimates``).
The functions here restate each one from its definition on the basis matrix
``psi[l, i] = psi_l(X_i)``, evaluated in chunks of points so that memory
stays O(chunk) at any sample size, and the sums ``S`` and ``Q`` themselves.
Also here: the per-point weights and the reweighted statistic of given
weight vectors, which the studies replace by per-cell sums; the exact
enumeration of the weight laws for small ``n`` and the exact expectation of
the statistic over it; and helpers with no caller in the library (one weight
vector, the Monte Carlo resampling variance, the exact squared bias between
two nested projections, Helmert contrasts, the summed coordinate variance).
"""

import math

import numpy as np

from densityball._quadrature import density_gram
from densityball.weights import CellWeightDrawer, WeightKind

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


def sample_weights_batch(scheme, size, rng):
    """``size`` independent weight vectors, shape ``(size, n)``, as floats.

    The case of ``CellWeightDrawer`` with one sample and one cell per point,
    so the draws are the stream the studies take.
    """
    n = scheme.n
    out = np.empty((size, n))
    points = np.arange(n)[None]
    for _, group in CellWeightDrawer(scheme, n, size).blocks([rng], points, np.ones_like(points)):
        for start, sums in group:
            out[start : start + sums.shape[1]] = sums[0]
    return out


def sample_weights(scheme, rng):
    """One weight vector of length ``scheme.n``."""
    return sample_weights_batch(scheme, 1, rng)[0]


def resampling_statistics(sample, model, scheme, weights):
    """Normalized reweighted statistic for each given weight vector.

    ``weights`` has shape ``(batch, n)``; the result has shape ``(batch,)``
    with entries ``normalizer * sum_l ((1/n) sum_i (W_i - mean W) psi_l(X_i))^2``.
    """
    if scheme.n != sample.n:
        raise ValueError(f"scheme size {scheme.n} does not match sample size {sample.n}")
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    if w.shape[1] != sample.n:
        raise ValueError("weight vectors must have length n")
    centered = w - w.mean(axis=1, keepdims=True)
    proj = np.zeros((w.shape[0], model.dim))
    start = 0
    for psi in basis_chunks(model, sample.points):
        stop = start + psi.shape[1]
        proj += centered[:, start:stop] @ psi.T
        start = stop
    proj /= sample.n
    return scheme.normalizer * np.einsum("ij,ij->i", proj, proj)


def resampling_variance_monte_carlo(sample, model, scheme, n_draws, rng):
    """Mean of the reweighted statistic over ``n_draws`` weight draws.

    Converges to the closed form as the number of draws grows; a fixed
    generator state gives a bit-reproducible value.
    """
    if n_draws < 1:
        raise ValueError("need at least one draw")
    draws = sample_weights_batch(scheme, n_draws, rng)
    return float(np.mean(resampling_statistics(sample, model, scheme, draws)))


# Keeps exact enumeration affordable: multinomial support size is
# C(2n-1, n-1), i.e. 6435 at n = 8.
MAX_ENUMERATION_N = 8


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_weights(scheme):
    """Full support with probabilities; only for small ``n``.

    Probabilities are exact up to float rounding and sum to 1 within 1e-12.
    """
    n = scheme.n
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"enumeration supported only for n <= {MAX_ENUMERATION_N}")
    out = []
    if scheme.kind is WeightKind.EFRON_MULTINOMIAL:
        n_fact = math.factorial(n)
        scale = float(n) ** n
        for combo in _compositions(n, n):
            denom = 1
            for c in combo:
                denom *= math.factorial(c)
            prob = n_fact / (denom * scale)
            out.append((np.array(combo, dtype=float), prob))
    else:
        prob = 0.5**n
        for mask in range(2**n):
            signs = np.array([1.0 if mask >> i & 1 else -1.0 for i in range(n)])
            out.append((signs, prob))
    return out


def resampling_variance_enumerated(sample, model, scheme):
    """Exact expectation of the reweighted statistic over the enumerated weight support (small n only)."""
    support = enumerate_weights(scheme)
    stacked = np.stack([w for w, _ in support])
    probs = np.array([p for _, p in support])
    stats = resampling_statistics(sample, model, scheme, stacked)
    return float(probs @ stats)


def true_bias_sq(oracle, sub_model, top_model):
    """Exact squared bias between the projections onto two nested models."""
    if not sub_model.shares_prefix_with(top_model):
        raise ValueError(f"{sub_model.label} is not nested in {top_model.label} (no shared index prefix)")
    tail = oracle.true_coefficients(top_model)[sub_model.dim :]
    return float(tail @ tail)


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
