"""Tests for the explicit-constant radius components."""

import math

import numpy as np
import pytest

from densityball.basis import fourier_collection, histogram_collection, log_ratio
from densityball.bounds import (
    EPSILON_GRID,
    BoundConfig,
    bias_bounds,
    bias_deviation_constant,
    radii,
    variance_bounds,
    variance_deviation_constant,
)


def test_variance_deviation_constant_values():
    assert variance_deviation_constant(1.0, 4.0) == pytest.approx(12240.0, rel=1e-12)
    assert variance_deviation_constant(1.0, 2.0 / 3.0) == pytest.approx(2040.0, rel=1e-9)
    assert variance_deviation_constant(2.0, 1.0) == pytest.approx(12240.0, rel=1e-12)
    with pytest.raises(ValueError):
        variance_deviation_constant(0.0, 1.0)
    with pytest.raises(ValueError):
        variance_deviation_constant(1.0, -2.0)


def test_bias_deviation_constant_values():
    assert bias_deviation_constant(0.5, 1.0, 4.0) == pytest.approx(12248.0, rel=1e-12)
    assert bias_deviation_constant(0.1, 1.0, 4.0) == pytest.approx(12280.0, rel=1e-12)
    # epsilon close to 1 leaves just over 12244
    assert bias_deviation_constant(0.999, 1.0, 4.0) == pytest.approx(12244.0, abs=0.01)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            bias_deviation_constant(bad, 1.0, 4.0)


def _ten_model_collection():
    return histogram_collection([2**k for k in range(10)])


def test_variance_bound_frozen_example():
    # d = 4, n = 100, 10 models, beta = 0.1, m_inf = 2, m2 = 10
    collection = _ten_model_collection()
    model = collection.models[2]
    assert model.dim == 4
    cfg = BoundConfig(beta=0.1, m2=10.0, m_inf=2.0)
    got = variance_bounds(np.array([0.0]), np.array([model.dim]), collection, cfg, n=100)[0]
    level = 2.0 * math.log(2.0 * 10 / 0.1)
    expected = 12240.0 * (1.0 + math.sqrt(2.0)) * 2.0 * level / 100.0
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(6263.0, abs=1.0)


def test_variance_bound_zero_scale_and_floor():
    collection = _ten_model_collection()
    model = collection.models[2]
    for beta in (0.1, 5e-324):  # the smallest beta overflows 2 N / beta, not the deviation level
        cfg = BoundConfig(beta=beta, m2=10.0, m_inf=2.0, kappa_scale=0.0)
        assert variance_bounds(np.array([0.37]), np.array([model.dim]), collection, cfg, n=100)[0] == 0.37
    cfg = BoundConfig(beta=5e-324, m2=10.0, m_inf=2.0)
    assert math.isfinite(variance_bounds(np.array([0.37]), np.array([model.dim]), collection, cfg, n=100)[0])

    # a single-model collection with large beta hits the deviation floor of 2
    single = histogram_collection([4])
    cfg = BoundConfig(beta=0.8, m2=10.0, m_inf=2.0)
    got = variance_bounds(np.array([0.0]), np.array([single.top.dim]), single, cfg, n=50)[0]
    expected = 12240.0 * (1.0 + math.sqrt(2.0)) * 2.0 * 2.0 / 50.0
    assert got == pytest.approx(expected, rel=1e-12)

    with pytest.raises(ValueError):
        variance_bounds(np.array([0.1, -0.1]), np.array([model.dim] * 2), collection, cfg, n=100)


def test_bias_bound_zero_estimate_grid_minimum():
    # oracle: evaluate the objective at every grid point and take the min;
    # with the default constants the minimizer sits at a small epsilon
    # (the interior optimum, not the grid edge)
    collection = _ten_model_collection()
    cfg = BoundConfig(beta=0.1, m2=10.0, m_inf=2.0)
    n = 100
    got = bias_bounds(np.array([0.0]), collection, cfg, n)[0]
    d_top = collection.top.dim
    level = max(2.0 * math.log(6.0 * len(collection) / cfg.beta), 2.0)
    base = (1.0 + math.sqrt(min(cfg.m_inf, cfg.m2 * math.sqrt(d_top)))) * math.sqrt(d_top) * level / n
    values = [
        bias_deviation_constant(eps, 1.0, collection.c_m) * base / (1.0 - eps)
        for eps in EPSILON_GRID
    ]
    assert got == pytest.approx(min(values), rel=1e-12)
    assert int(np.argmin(values)) <= 2


@pytest.mark.parametrize(
    "collection",
    [histogram_collection([2**k for k in range(9)]), fourier_collection(dims=list(range(1, 62, 2)))],
    ids=["histogram", "fourier"],
)
@pytest.mark.parametrize("kappa_scale", [0.0, 1.0])
@pytest.mark.parametrize("beta", [0.1, 5e-324])
def test_bias_bounds_equal_the_per_epsilon_constants(collection, kappa_scale, beta):
    # the grid of kappas is taken in closed form; it must round as the 99 calls do
    cfg = BoundConfig(beta=beta, m2=2.0, m_inf=2.0, kappa_scale=kappa_scale)
    n = 4000
    estimates = np.random.default_rng(7).normal(0.0, 0.05, len(collection))
    d_top = collection.top.dim
    level = max(2.0 * log_ratio(6.0 * len(collection), beta), 2.0)
    norm_part = 1.0 + math.sqrt(min(cfg.m_inf, cfg.m2 * math.sqrt(d_top)))
    base = kappa_scale * norm_part * math.sqrt(d_top) * level / n
    eps = np.array(EPSILON_GRID)
    kappa = np.array([bias_deviation_constant(e, collection.c1, collection.c_m) for e in EPSILON_GRID])
    expected = np.min((estimates[:, None] + kappa * base) / (1.0 - eps), axis=1)
    got = bias_bounds(estimates, collection, cfg, n)
    assert got.tobytes() == expected.tobytes()


def test_bias_bound_zero_scale_keeps_only_the_estimate():
    collection = _ten_model_collection()
    for beta in (0.1, 5e-324):
        cfg = BoundConfig(beta=beta, m2=10.0, m_inf=2.0, kappa_scale=0.0)
        got = bias_bounds(np.array([3.0]), collection, cfg, n=100)[0]
        assert got == pytest.approx(3.0 / 0.99, rel=1e-12)
    cfg = BoundConfig(beta=5e-324, m2=10.0, m_inf=2.0)
    assert math.isfinite(bias_bounds(np.array([3.0]), collection, cfg, n=100)[0])


def test_bias_bound_monotone_in_estimate():
    collection = _ten_model_collection()
    cfg = BoundConfig(beta=0.1, m2=10.0, m_inf=2.0)
    lo, mid, hi = bias_bounds(np.array([-0.2, 0.5, 2.0]), collection, cfg, n=100)
    assert lo < mid < hi


def test_radius_square_root_and_components():
    collection = _ten_model_collection()
    dims = np.array([collection.models[2].dim])
    cfg = BoundConfig(beta=0.1, m2=10.0, m_inf=2.0, kappa_scale=0.0)
    v = variance_bounds(np.array([4.0]), dims, collection, cfg, n=100)
    k = bias_bounds(np.array([0.0]), collection, cfg, n=100)
    _, rho, clamped = radii(v, k, cfg.eta)
    assert not clamped[0]
    assert rho[0] == pytest.approx(2.0, rel=1e-12)

    cfg = BoundConfig(beta=0.1, m2=10.0, m_inf=2.0, eta=0.3)
    v = variance_bounds(np.array([0.1]), dims, collection, cfg, n=100)
    k = bias_bounds(np.array([0.2]), collection, cfg, n=100)
    radius_sq, rho, clamped = radii(v, k, cfg.eta)
    assert radius_sq[0] == cfg.eta**2 + k[0] + v[0]
    assert rho[0] == pytest.approx(math.sqrt(cfg.eta**2 + v[0] + k[0]), rel=1e-12)
    assert not clamped[0]


def test_radius_clamps_negative_radicand():
    collection = _ten_model_collection()
    cfg = BoundConfig(beta=0.1, m2=10.0, m_inf=2.0, kappa_scale=1e-9)
    v = variance_bounds(np.array([0.0]), np.array([collection.models[0].dim]), collection, cfg, n=100)
    k = bias_bounds(np.array([-50.0]), collection, cfg, n=100)
    radius_sq, rho, clamped = radii(v, k, cfg.eta)
    assert radius_sq[0] < 0.0
    assert clamped[0]
    assert rho[0] == 0.0


def test_bounds_monotone_in_n_and_dim():
    collection = _ten_model_collection()
    cfg = BoundConfig(beta=0.1, m2=10.0, m_inf=2.0)
    dim = np.array([collection.models[3].dim])
    v_by_n = [variance_bounds(np.array([0.3]), dim, collection, cfg, n)[0] for n in (10, 30, 100, 1000)]
    assert all(a >= b for a, b in zip(v_by_n[:-1], v_by_n[1:]))
    dims = np.array([m.dim for m in collection.models[:7]])
    v_by_d = variance_bounds(np.full(7, 0.3), dims, collection, cfg, 100)
    assert np.all(v_by_d[:-1] <= v_by_d[1:])

    k_by_n = [bias_bounds(np.array([0.3]), collection, cfg, n)[0] for n in (10, 30, 100, 1000)]
    assert all(a >= b for a, b in zip(k_by_n[:-1], k_by_n[1:]))
    # bias bound grows with the top dimension of the collection
    k_by_top = [
        bias_bounds(np.array([0.3]), c, cfg, 100)[0]
        for c in (
            histogram_collection([1, 2, 4]),
            histogram_collection([1, 2, 4, 8, 16]),
            histogram_collection([1, 2, 4, 8, 16, 32, 64]),
        )
    ]
    assert all(a <= b for a, b in zip(k_by_top[:-1], k_by_top[1:]))


def test_radius_monotone_in_beta():
    collection = _ten_model_collection()
    dims = np.array([collection.models[2].dim])
    rhos = []
    for beta in (0.01, 0.05, 0.1, 0.3):
        cfg = BoundConfig(beta=beta, m2=10.0, m_inf=2.0)
        v = variance_bounds(np.array([0.2]), dims, collection, cfg, n=100)
        k = bias_bounds(np.array([0.1]), collection, cfg, n=100)
        rhos.append(radii(v, k, cfg.eta)[1][0])
    assert all(a >= b for a, b in zip(rhos[:-1], rhos[1:]))


def test_epsilon_grid_close_to_finer_grid():
    # grid minimum within 0.5% of a 10x finer grid, over random draws
    rng = np.random.default_rng(99)
    fine = np.linspace(0.001, 0.999, 999)
    for _ in range(100):
        n = int(rng.integers(10, 1000))
        collection = histogram_collection([2**k for k in range(int(rng.integers(2, 7)))])
        cfg = BoundConfig(
            beta=float(rng.uniform(0.01, 0.5)),
            m2=float(rng.uniform(0.5, 20.0)),
            m_inf=float(rng.uniform(0.5, 20.0)),
            kappa_scale=float(rng.uniform(0.5, 2.0)),
        )
        estimate = float(rng.uniform(-0.5, 5.0))
        coarse_min = bias_bounds(np.array([estimate]), collection, cfg, n)[0]
        d_top = collection.top.dim
        level = max(2.0 * math.log(6.0 * len(collection) / cfg.beta), 2.0)
        base = (
            cfg.kappa_scale
            * (1.0 + math.sqrt(min(cfg.m_inf, cfg.m2 * math.sqrt(d_top))))
            * math.sqrt(d_top)
            * level
            / n
        )
        fine_min = min(
            (estimate + bias_deviation_constant(e, 1.0, collection.c_m) * base) / (1.0 - e)
            for e in fine
        )
        assert coarse_min >= fine_min - 1e-12
        assert coarse_min - fine_min <= 0.005 * abs(fine_min)


def test_bound_config_validation():
    with pytest.raises(ValueError):
        BoundConfig(beta=0.0, m2=1.0, m_inf=1.0)
    with pytest.raises(ValueError):
        BoundConfig(beta=0.1, m2=-1.0, m_inf=1.0)
    with pytest.raises(ValueError):
        BoundConfig(beta=0.1, m2=1.0, m_inf=1.0, eta=-0.1)
    with pytest.raises(ValueError):
        BoundConfig(beta=0.1, m2=1.0, m_inf=1.0, kappa_scale=-1.0)
    # NaN passes every < / > check and inf makes the radius overflow, so both are refused by name
    valid = {"beta": 0.1, "m2": 1.0, "m_inf": 1.0, "eta": 0.0, "kappa_scale": 1.0}
    for name in valid:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                BoundConfig(**{**valid, name: value})
