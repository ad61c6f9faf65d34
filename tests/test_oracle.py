"""Tests for the known-density oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import spherical_jn

from densityball._quadrature import nodes_for
from densityball.basis import (
    FourierModel,
    HistogramModel,
    PiecewisePolynomialModel,
    histogram_collection,
    piecewise_polynomial_collection,
)
from densityball.oracle import (
    CosineTiltDensity,
    HistogramDensity,
    UniformDensity,
    _spherical_bessel,
    residual_norm_sq,
    sample_from,
)
from densityball.weights import replication_rng

from reference import true_bias_sq

ORACLES = [
    UniformDensity(),
    HistogramDensity([1.5, 0.5]),
    HistogramDensity([0.4, 2.2, 0.4]),
    CosineTiltDensity(0.3, 3),
    CosineTiltDensity(-0.5, 1),
]

MODELS = [
    HistogramModel(1),
    HistogramModel(8),
    FourierModel(0),
    FourierModel(4),
    PiecewisePolynomialModel(3, 4),
    histogram_collection([1, 2, 4, 8]).top,
    piecewise_polynomial_collection([1, 3], 3).top,
    PiecewisePolynomialModel(7, 5),
    piecewise_polynomial_collection([1, 2, 6, 12], 6).top,
]


def test_validation():
    with pytest.raises(ValueError):
        HistogramDensity([2.0, 0.5])  # mean != 1
    with pytest.raises(ValueError):
        HistogramDensity([-0.5, 2.5])
    with pytest.raises(ValueError):
        CosineTiltDensity(0.8, 1)  # 0.8 * sqrt(2) > 1
    with pytest.raises(ValueError):
        CosineTiltDensity(0.3, 0)
    # NaN slips through every < / > comparison, so finiteness is checked first
    for values in ([math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf, 2.0]):
        with pytest.raises(ValueError, match="finite"):
            HistogramDensity(values)
    for amplitude, frequency in ((math.nan, 1), (math.inf, 1), (0.3, math.inf), (0.3, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            CosineTiltDensity(amplitude, frequency)
    # 2 pi * 1e308 is inf: every density value was NaN and the rejection sampler never returned
    for frequency in (1e308, 2.0**1023, 3e307):
        with pytest.raises(ValueError, match="frequency is too large"):
            CosineTiltDensity(0.3, frequency)
    assert CosineTiltDensity(0.3, 2e307).frequency == int(2e307)
    # an int beyond the float range is refused like any other non-finite value
    for amplitude, frequency in ((0.3, 10**400), (10**400, 1)):
        with pytest.raises(ValueError, match="finite"):
            CosineTiltDensity(amplitude, frequency)
    with pytest.raises(ValueError, match="finite"):
        HistogramDensity([10**400, 1])


def test_a_histogram_density_keeps_its_own_cell_values():
    # the values used to alias a float array, so editing it moved the density but not the sampler's cdf
    values = np.array([1.5, 0.5])
    oracle = HistogramDensity(values)
    values[:] = [0.5, 1.5]
    np.testing.assert_array_equal(oracle.cell_values, [1.5, 0.5])
    assert oracle.density(np.array([0.25]))[0] == 1.5


@pytest.mark.parametrize("oracle", [UniformDensity(), HistogramDensity([1.5, 0.5]), CosineTiltDensity(0.3, 3)])
def test_histogram_coefficients_take_linear_memory(oracle):
    # per-level cell masses through the model's own map; a (dim, cells) matrix at 4096 cells is 128 MiB
    for model in (HistogramModel(4096), histogram_collection([2**k for k in range(13)]).top):
        tracemalloc.start()
        try:
            coeffs = oracle.true_coefficients(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coeffs.shape == (4096,)
        assert peak < 2**20, model.levels


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: repr(o.__dict__))
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label + str(getattr(m, "levels", "")))
def test_coefficients_match_quadrature(oracle, model):
    x, w = nodes_for(model, oracle, order=16)
    quad = model.basis_matrix(x) @ (w * oracle.density(x))
    np.testing.assert_allclose(oracle.true_coefficients(model), quad, atol=1e-12)


@pytest.mark.parametrize("r", [1, 2, 4, 12, 20, 40])
def test_spherical_bessel_matches_scipy(r):
    # tiny to huge arguments, the zeros k pi of sin, and arguments whose square overflows
    thetas = np.concatenate([np.logspace(-8, 6, 2000), math.pi * np.arange(1, 200), [1e18, 3e300]])
    got = np.array([_spherical_bessel(r, float(theta)) for theta in thetas])
    assert got.shape == (thetas.size, r)
    np.testing.assert_allclose(got, spherical_jn(np.arange(r), thetas[:, None]), rtol=0, atol=1e-14)


def test_polynomial_coefficients_take_one_moment_call_per_level():
    calls = []

    class Counted(HistogramDensity):
        def _legendre_moments(self, pieces, r):
            calls.append((pieces, r))
            return super()._legendre_moments(pieces, r)

    top = piecewise_polynomial_collection([2**k for k in range(11)], 4).top
    assert Counted([0.4, 2.2, 0.4]).true_coefficients(top).shape == (4096,)
    assert calls == [(2**k, 4) for k in range(11)]


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: repr(o.__dict__))
@pytest.mark.parametrize("m", [1, 3, 8, 50])
def test_standalone_histogram_is_exact(oracle, m):
    # the one-level chain is the scaled indicators and the scaled cell masses,
    # bit for bit; the seeded experiment outputs rest on this
    model = HistogramModel(m)
    x = np.concatenate([np.linspace(0.0, 1.0, 4 * m + 1), np.random.default_rng(m).random(200)])
    indicators = np.zeros((m, x.size))
    indicators[np.minimum((x * m).astype(int), m - 1), np.arange(x.size)] = math.sqrt(m)
    assert np.array_equal(model.basis_matrix(x), indicators)
    edges = np.linspace(0.0, 1.0, m + 1)
    masses = oracle.cdf(edges[1:]) - oracle.cdf(edges[:-1])
    assert np.array_equal(oracle.true_coefficients(model), math.sqrt(m) * masses)


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: repr(o.__dict__))
@pytest.mark.parametrize(
    "collection",
    [
        histogram_collection([1, 2, 4, 8]),
        histogram_collection([3, 6, 12]),
        piecewise_polynomial_collection([1, 2, 6], 2),
    ],
    ids=["hist-dyadic", "hist-triadic", "poly"],
)
def test_member_coefficients_are_prefixes_of_the_top(oracle, collection):
    top = oracle.true_coefficients(collection.top)
    for member in collection:
        np.testing.assert_allclose(oracle.true_coefficients(member), top[: member.dim], rtol=0, atol=1e-13)


def test_specific_coefficients():
    uniform = UniformDensity()
    fourier = FourierModel(3)
    for lam in range(1, fourier.dim):
        assert uniform.true_coefficients(fourier)[lam] == 0.0
    hist = HistogramModel(5)
    for lam in range(5):
        assert uniform.true_coefficients(hist)[lam] == pytest.approx(1.0 / math.sqrt(5.0))
    tilt = CosineTiltDensity(0.3, 2)
    # cosine coefficient of the matching frequency is the amplitude
    assert tilt.true_coefficients(FourierModel(3))[3] == pytest.approx(0.3, abs=1e-15)
    assert tilt.true_coefficients(FourierModel(3))[4] == 0.0
    with pytest.raises(IndexError):
        uniform.true_coefficients(hist)[5]


def test_true_bias_examples():
    uniform = UniformDensity()
    coll = histogram_collection([1, 2, 4])
    assert true_bias_sq(uniform, coll.models[0], coll.top) == pytest.approx(0.0, abs=1e-15)

    tilt = CosineTiltDensity(0.3, 3)
    assert true_bias_sq(tilt, FourierModel(2), FourierModel(4)) == pytest.approx(0.09, abs=1e-15)

    half = HistogramDensity([2.0, 0.0])
    chain = histogram_collection([1, 2])
    assert true_bias_sq(half, chain.models[0], chain.top) == pytest.approx(1.0, abs=1e-12)
    # quadrature cross-check of the same value
    x, w = nodes_for(chain.top, half, order=8)
    coeffs = chain.top.basis_matrix(x) @ (w * half.density(x))
    assert coeffs[1] ** 2 == pytest.approx(1.0, abs=1e-10)

    with pytest.raises(ValueError):
        true_bias_sq(uniform, HistogramModel(2), HistogramModel(4))


def test_norm_identities():
    tilt = CosineTiltDensity(0.4, 2)
    assert tilt.norm2**2 == pytest.approx(1.0 + 0.16, rel=1e-15)
    hist = HistogramDensity([1.5, 0.5])
    assert hist.norm2**2 == pytest.approx((1.5**2 + 0.5**2) / 2.0, rel=1e-15)
    assert hist.norm_inf == 1.5
    assert tilt.norm_inf == pytest.approx(1.0 + 0.4 * math.sqrt(2.0), rel=1e-15)


def test_residual_norm():
    tilt = CosineTiltDensity(0.3, 3)
    assert residual_norm_sq(tilt, FourierModel(2)) == pytest.approx(0.09, abs=1e-12)
    assert residual_norm_sq(tilt, FourierModel(3)) == pytest.approx(0.0, abs=1e-12)
    assert residual_norm_sq(UniformDensity(), HistogramModel(7)) == pytest.approx(0.0, abs=1e-12)


def test_cdf_matches_density_integral():
    from densityball._quadrature import piecewise_nodes, refine_breakpoints

    xs = np.linspace(0.0, 1.0, 23)[1:]
    for oracle in ORACLES:
        width = 0.25 / (oracle.max_frequency() + 1)
        for x in xs:
            bps = np.concatenate([oracle.breakpoints(), [x]])
            bps = np.unique(bps[bps <= x + 1e-15])
            if bps[0] > 0.0:
                bps = np.concatenate([[0.0], bps])
            nodes, w = piecewise_nodes(refine_breakpoints(bps, width), 12)
            integral = float(oracle.density(nodes) @ w)
            np.testing.assert_allclose(float(oracle.cdf(np.array([x]))[0]), integral, atol=1e-10)


def test_uniform_sampler_ks():
    from scipy.stats import kstest

    passed = 0
    for j in range(100):
        pts = UniformDensity().sample_points(500, replication_rng(5, j))
        stat = kstest(pts, "uniform").statistic
        passed += stat < 1.628 / math.sqrt(500)  # 1% critical value
    assert passed >= 96


def test_histogram_sampler_respects_support():
    half = HistogramDensity([2.0, 0.0])
    pts = half.sample_points(2000, np.random.default_rng(8))
    assert np.all(pts < 0.5)
    assert np.all(pts >= 0.0)


def test_cosine_sampler_first_moment():
    tilt = CosineTiltDensity(0.3, 2)
    pts = tilt.sample_points(100_000, np.random.default_rng(12))
    values = math.sqrt(2.0) * np.cos(2.0 * math.pi * 2 * pts)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - 0.3) <= 4.0 * se


def test_sample_from_wraps_points():
    sample = sample_from(UniformDensity(), 10, np.random.default_rng(0))
    assert sample.n == 10
    with pytest.raises(ValueError):
        sample_from(UniformDensity(), 1, np.random.default_rng(0))


def test_histogram_sampler_distribution():
    oracle = HistogramDensity([0.4, 2.2, 0.4])
    pts = oracle.sample_points(60_000, np.random.default_rng(4))
    counts = np.histogram(pts, bins=np.linspace(0.0, 1.0, 4))[0] / 60_000
    np.testing.assert_allclose(counts, [0.4 / 3, 2.2 / 3, 0.4 / 3], atol=0.01)
