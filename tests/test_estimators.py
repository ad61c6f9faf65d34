"""Tests for the projection and quadratic-functional estimators."""

import math
import tracemalloc

import numpy as np
import pytest

from densityball import estimators
from densityball._quadrature import density_gram, nodes_for
from densityball.basis import (
    FourierModel,
    HistogramModel,
    PiecewisePolynomialModel,
    histogram_collection,
    piecewise_polynomial_collection,
    unit_ball_sup_norm,
)
from densityball.estimators import (
    Sample,
    centered_u_statistic,
    max_unit_variance,
    project,
    projection_bias_estimate,
    projection_error_sq,
    resampling_statistics,
    resampling_variance,
    resampling_variance_enumerated,
)
from densityball.oracle import CosineTiltDensity, HistogramDensity, UniformDensity, sample_from
from densityball.weights import make_scheme, replication_rng

import reference
from reference import coordinate_variance_total, resampling_variance_monte_carlo


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(np.array([0.5]))
    for bad in (1.2, -0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            Sample(np.array([0.5, bad]))
    with pytest.raises(ValueError):
        Sample(np.array([[0.1, 0.2], [0.3, 0.4]]))
    s = Sample(np.array([0.0, 1.0, 0.5]))
    assert s.n == 3


def test_project_histogram_counts():
    sample = Sample(np.array([0.1, 0.2, 0.3, 0.7]))
    est = project(sample, HistogramModel(2))
    np.testing.assert_allclose(
        est.coefficients, [3.0 * math.sqrt(2.0) / 4.0, math.sqrt(2.0) / 4.0], rtol=1e-15
    )
    # density values on the two halves
    np.testing.assert_allclose(est.coefficients * math.sqrt(2.0), [1.5, 0.5], rtol=1e-15)


def test_project_minimizes_quadratic_risk():
    # brute-force grid search over coefficients agrees with the formula
    sample = Sample(np.array([0.1, 0.2, 0.3, 0.7]))
    model = HistogramModel(2)
    empirical = project(sample, model).coefficients
    psi_means = model.basis_matrix(sample.points).mean(axis=1)
    grid = np.linspace(0.0, 2.0, 101)
    best, best_val = None, np.inf
    for c0 in grid:
        for c1 in grid:
            val = c0 * c0 + c1 * c1 - 2.0 * (c0 * psi_means[0] + c1 * psi_means[1])
            if val < best_val:
                best, best_val = (c0, c1), val
    np.testing.assert_allclose(best, empirical, atol=grid[1] - grid[0])


def test_project_constant_model_gives_one():
    sample = Sample(np.array([0.12, 0.9, 0.4]))
    est = project(sample, FourierModel(0))
    assert est.coefficients[0] == 1.0


def test_project_symmetric_sample_kills_sine():
    sample = Sample(np.array([0.25, 0.75, 0.1, 0.9]))
    est = project(sample, FourierModel(1))
    assert abs(est.coefficients[2]) < 1e-12


def test_resampling_variance_degenerate_sample():
    sample = Sample(np.array([0.3, 0.3, 0.3]))
    assert resampling_variance(sample, HistogramModel(4)) == 0.0


def test_resampling_variance_two_point_case():
    # frozen via the exact-enumeration oracle (both schemes agree)
    sample = Sample(np.array([0.25, 0.75]))
    model = HistogramModel(2)
    closed = resampling_variance(sample, model)
    for kind in ("efron", "rademacher"):
        enum = resampling_variance_enumerated(sample, model, make_scheme(kind, 2))
        assert closed == pytest.approx(enum, abs=1e-12)
    assert closed == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["efron", "rademacher"])
def test_enumeration_matches_closed_form(kind):
    from densityball.basis import PiecewisePolynomialModel

    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 6):
        sample = Sample(rng.random(n))
        scheme = make_scheme(kind, n)
        for model in (HistogramModel(3), FourierModel(1), PiecewisePolynomialModel(2, 2)):
            closed = resampling_variance(sample, model)
            enum = resampling_variance_enumerated(sample, model, scheme)
            assert closed == pytest.approx(enum, abs=1e-12)


def test_resampling_statistics_all_ones_weights():
    sample = Sample(np.array([0.1, 0.6, 0.9]))
    scheme = make_scheme("efron", 3)
    stats = resampling_statistics(sample, HistogramModel(4), scheme, np.ones((1, 3)))
    assert stats[0] == 0.0


def test_resampling_statistics_refuses_a_scheme_of_another_size():
    # the normalizer of a 20-point scheme, 20/19, is not the 10-point sample's 10/9
    sample = Sample(np.linspace(0.05, 0.95, 10))
    weights = np.arange(10.0)[None]
    with pytest.raises(ValueError, match="scheme size 20 does not match sample size 10"):
        resampling_statistics(sample, HistogramModel(4), make_scheme("efron", 20), weights)


def test_monte_carlo_tracks_closed_form():
    rng = replication_rng(9, 0)
    sample = sample_from(UniformDensity(), 20, rng)
    model = HistogramModel(4)
    scheme = make_scheme("efron", 20)
    closed = resampling_variance(sample, model)
    draws = 20_000
    mc = resampling_variance_monte_carlo(sample, model, scheme, draws, replication_rng(9, 1))
    # rebuild the draw set to estimate the Monte Carlo standard error
    from densityball.weights import sample_weights_batch

    w = sample_weights_batch(scheme, draws, replication_rng(9, 1))
    vals = resampling_statistics(sample, model, scheme, w)
    se = vals.std(ddof=1) / math.sqrt(draws)
    assert mc == pytest.approx(vals.mean())
    assert abs(mc - closed) <= 3.0 * se


def test_bias_estimate_same_model_is_zero():
    sample = Sample(np.array([0.2, 0.8, 0.5]))
    top = histogram_collection([1, 2]).top
    assert projection_bias_estimate(sample, top, top) == 0.0


def test_bias_estimate_two_point_contrast():
    # single extra contrast function worth -1 on the mixed pair
    coll = histogram_collection([1, 2])
    sub, top = coll.models
    sample = Sample(np.array([0.25, 0.75]))
    assert projection_bias_estimate(sample, sub, top) == pytest.approx(-1.0, abs=1e-12)


def test_bias_estimate_requires_nesting():
    sample = Sample(np.array([0.2, 0.8]))
    with pytest.raises(ValueError):
        projection_bias_estimate(sample, HistogramModel(2), HistogramModel(4))


def _naive_bias_estimate(sample, sub, top):
    psi = top.basis_matrix(sample.points)[sub.dim :]
    n = sample.n
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += float(psi[:, i] @ psi[:, j])
    return total / (n * (n - 1))


@pytest.mark.parametrize("n", [3, 17, 50, 200])
def test_bias_estimate_matches_naive_double_loop(n):
    rng = np.random.default_rng(n)
    sample = Sample(rng.random(n))
    coll = histogram_collection([1, 2, 4])
    fast = projection_bias_estimate(sample, coll.models[0], coll.top)
    slow = _naive_bias_estimate(sample, coll.models[0], coll.top)
    assert fast == pytest.approx(slow, abs=1e-10)
    sub, top = FourierModel(1), FourierModel(3)
    fast = projection_bias_estimate(sample, sub, top)
    slow = _naive_bias_estimate(sample, sub, top)
    assert fast == pytest.approx(slow, abs=1e-10)


def test_centered_u_statistic_two_point_formula():
    oracle = CosineTiltDensity(0.3, 1)
    model = FourierModel(2)
    sample = Sample(np.array([0.17, 0.62]))
    truth = oracle.true_coefficients(model)
    psi = model.basis_matrix(sample.points)
    direct = float(((psi[:, 0] - truth) * (psi[:, 1] - truth)).sum())
    assert centered_u_statistic(sample, model, oracle) == pytest.approx(direct, rel=1e-12)


def test_centered_u_statistic_mean_is_zero():
    oracle = UniformDensity()
    model = HistogramModel(5)
    values = np.empty(2000)
    for j in range(values.size):
        rng = replication_rng(31, j)
        values[j] = centered_u_statistic(sample_from(oracle, 30, rng), model, oracle)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean()) <= 4.0 * se


@pytest.mark.parametrize(
    "model, n",
    [(FourierModel(100), 50_000), (HistogramModel(1000), 10_000), (PiecewisePolynomialModel(250, 4), 10_000)],
    ids=["fourier-201", "histogram-1000", "poly-250x4"],
)
def test_identity_decomposition_holds_at_ten_million_basis_entries(model, n):
    # n * dim ~ 1e7: numpy's pairwise sums keep the identity far inside the acceptance tolerance
    oracle = CosineTiltDensity(0.5, 3)
    sample = sample_from(oracle, n, np.random.default_rng(n + model.dim))
    error = projection_error_sq(sample, model, oracle)
    estimate = resampling_variance(sample, model)
    centered = centered_u_statistic(sample, model, oracle)
    assert abs(error - estimate - centered) <= 1e-10 * (1.0 + error)


def _peak_mb(fn, *args):
    """Peak of the memory numpy and Python allocate during ``fn(*args)``, in MB of 2**20 bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "model, halves, n",
    [
        (FourierModel(100), lambda: (FourierModel(50), FourierModel(100)), 50_000),
        (HistogramModel(1000), lambda: histogram_collection([500, 1000]).models, 10_000),
        (PiecewisePolynomialModel(250, 4), lambda: piecewise_polynomial_collection([125, 250], 4).models, 10_000),
    ],
    ids=["fourier-201", "histogram-1000", "poly-250x4"],
)
def test_estimators_and_references_peak_below_60_mb_at_ten_million_basis_entries(model, halves, n):
    # a dense (dim, n) basis matrix at these sizes is 80 MB or more; chunks of points stay far below
    oracle = CosineTiltDensity(0.5, 3)
    sample = sample_from(oracle, n, np.random.default_rng(n + model.dim))
    sub, top = halves()
    for module in (estimators, reference):
        peaks = {
            "resampling_variance": _peak_mb(module.resampling_variance, sample, model),
            "projection_bias_estimate": _peak_mb(module.projection_bias_estimate, sample, sub, top),
            "centered_u_statistic": _peak_mb(module.centered_u_statistic, sample, model, oracle),
        }
        assert max(peaks.values()) < 60.0, (module.__name__, peaks)


def test_projection_error_vanishes_on_balanced_sample():
    # equal counts per cell reproduce the uniform coefficients exactly
    model = HistogramModel(4)
    pts = np.concatenate([np.full(2, c) for c in (0.125, 0.375, 0.625, 0.875)])
    sample = Sample(pts)
    assert projection_error_sq(sample, model, UniformDensity()) == 0.0


def test_projection_error_mean_uniform_histogram():
    # expected value is (cells - 1) / n for the uniform density
    oracle = UniformDensity()
    model = HistogramModel(4)
    n = 25
    values = np.empty(3000)
    for j in range(values.size):
        rng = replication_rng(17, j)
        values[j] = projection_error_sq(sample_from(oracle, n, rng), model, oracle)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - 3.0 / n) <= 4.0 * se


def test_variance_estimate_is_nonnegative_and_bias_can_go_negative():
    rng = np.random.default_rng(2)
    coll = histogram_collection([1, 2, 4])
    saw_negative = False
    for _ in range(200):
        sample = Sample(rng.random(int(rng.integers(2, 12))))
        assert resampling_variance(sample, coll.top) >= 0.0
        saw_negative |= projection_bias_estimate(sample, coll.models[0], coll.top) < 0.0
    assert saw_negative


def test_scheme_size_mismatch_rejected():
    sample = Sample(np.array([0.1, 0.4, 0.9]))
    with pytest.raises(ValueError):
        resampling_variance_enumerated(sample, HistogramModel(2), make_scheme("efron", 5))


def test_coordinate_variance_total_uniform_histogram():
    # sum of per-coordinate variances is cells - 1 for the uniform density
    value = coordinate_variance_total(HistogramModel(4), UniformDensity())
    assert value == pytest.approx(3.0, abs=1e-9)


def test_unit_ball_sup_norm_values():
    assert unit_ball_sup_norm(HistogramModel(4)) == pytest.approx(2.0, rel=1e-12)
    assert unit_ball_sup_norm(FourierModel(2)) == pytest.approx(math.sqrt(5.0), rel=1e-9)


def test_max_unit_variance_respects_bounds():
    oracle = HistogramDensity([1.5, 0.5])
    model = HistogramModel(4)
    v_sq = max_unit_variance(model, oracle)
    d_total = coordinate_variance_total(model, oracle)
    assert v_sq <= min(oracle.norm_inf, model.c1 * oracle.norm2 * 2.0) + 1e-6
    assert v_sq <= d_total + 1e-6


def test_max_unit_variance_uniform_histogram():
    # under the uniform density the covariance is I - 11^T / m: top eigenvalue 1
    assert max_unit_variance(HistogramModel(4), UniformDensity()) == pytest.approx(1.0, abs=1e-12)


def _variance_along(model, oracle, directions):
    """``Var_s(sum_l a_l psi_l(X))`` for each row ``a``, by its own quadrature of t^2 s and t s."""
    x, w = nodes_for(model, oracle, order=16)
    t = directions @ model.basis_matrix(x)
    sw = w * oracle.density(x)
    mean = t @ sw
    return (t * t) @ sw - mean * mean


@pytest.mark.parametrize(
    "model, oracle",
    [
        (HistogramModel(8), HistogramDensity([0.4, 2.2, 0.4])),
        (FourierModel(5), CosineTiltDensity(0.3, 3)),
        (histogram_collection([1, 2, 4, 8, 16]).top, HistogramDensity([1.5, 0.5])),
        (piecewise_polynomial_collection([1, 2, 4], 3).top, CosineTiltDensity(0.5, 2)),
    ],
    ids=["histogram", "fourier", "histogram-chain", "poly-chain"],
)
def test_max_unit_variance_is_the_supremum(model, oracle):
    v_sq = max_unit_variance(model, oracle)
    gram, moments = density_gram(model, oracle)
    top = np.linalg.eigh(gram - np.outer(moments, moments))[1][:, -1]
    # attained along the top eigenvector
    assert _variance_along(model, oracle, top[None, :])[0] == pytest.approx(v_sq, rel=1e-12)
    # and no random unit direction exceeds it
    directions = np.random.default_rng(5).standard_normal((1000, model.dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    assert np.all(_variance_along(model, oracle, directions) <= v_sq * (1.0 + 1e-12))
