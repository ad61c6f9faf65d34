"""Tests for the orthonormal systems and nested collections."""

import math

import numpy as np
import pytest

from densityball import basis
from densityball._quadrature import gram_matrix, piecewise_nodes
from densityball.basis import (
    FourierModel,
    HistogramModel,
    PiecewisePolynomialModel,
    check_dimension_growth,
    check_sup_norm_control,
    fourier_collection,
    fourier_collection_for_sobolev,
    helmert_contrasts,
    histogram_collection,
    piecewise_polynomial_collection,
)


def _orthonormality_nodes(model):
    """Quadrature accurate to well below 1e-8 for products of basis functions.

    Piecewise families integrate exactly (Gauss order >= degree); the
    trigonometric family gets a composite rule with at least 2048 points.
    """
    if isinstance(model, FourierModel):
        panels = np.linspace(0.0, 1.0, max(256, 8 * (model.cutoff + 1)) + 1)
        return piecewise_nodes(panels, 8)
    order = model.params.get("degree_bound", 1) + 1
    return piecewise_nodes(model.breakpoints(), max(order, 4))


ALL_MODELS = [
    HistogramModel(1),
    HistogramModel(2),
    HistogramModel(5),
    HistogramModel(8),
    FourierModel(0),
    FourierModel(1),
    FourierModel(3),
    PiecewisePolynomialModel(1, 3),
    PiecewisePolynomialModel(4, 2),
    PiecewisePolynomialModel(3, 4),
    histogram_collection([1, 2, 4, 8]).top,
    histogram_collection([2, 6]).top,
    piecewise_polynomial_collection([1, 2, 4], 2).top,
    piecewise_polynomial_collection([1, 3], 3).top,
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label + str(m.params))
def test_orthonormality(model):
    x, w = _orthonormality_nodes(model)
    gram = gram_matrix(model, x, w)
    np.testing.assert_allclose(gram, np.eye(model.dim), atol=1e-8)


def test_eval_basis_examples():
    # the companion constant function of the trigonometric system
    fourier = FourierModel(2)
    for x in (0.0, 0.3, 1.0):
        assert fourier.eval_basis(0, x) == 1.0
    # first cosine at zero
    assert fourier.eval_basis(1, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    # scaled indicator of the first half cell
    hist = HistogramModel(2)
    assert hist.eval_basis(0, 0.25) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert hist.eval_basis(0, 0.75) == 0.0
    # the indicator squares to m on its cell, so it integrates to one
    x, w = piecewise_nodes(hist.breakpoints(), 4)
    np.testing.assert_allclose((hist.basis_matrix(x)[0] ** 2) @ w, 1.0, atol=1e-12)


def test_eval_basis_errors():
    model = HistogramModel(4)
    with pytest.raises(IndexError):
        model.eval_basis(4, 0.5)
    with pytest.raises(IndexError):
        model.eval_basis(-1, 0.5)
    with pytest.raises(ValueError):
        model.eval_basis(0, 1.5)
    with pytest.raises(ValueError):
        model.eval_basis(0, -0.1)


def test_fourier_pointwise_identity():
    # sum of squared basis values is the dimension, everywhere
    x = np.linspace(0.0, 1.0, 1001)
    for cutoff in (0, 2, 4):
        model = FourierModel(cutoff)
        psi = model.basis_matrix(x)
        np.testing.assert_allclose((psi**2).sum(axis=0), model.dim, atol=1e-10)


@pytest.mark.parametrize(
    "collection",
    [
        histogram_collection([1, 2, 4, 8]),
        histogram_collection([3, 6, 12]),
        fourier_collection(cutoffs=[0, 1, 3]),
        piecewise_polynomial_collection([1, 2, 6], 2),
    ],
    ids=["hist-dyadic", "hist-triadic", "fourier", "poly"],
)
def test_nesting_prefix_reproduces_members(collection):
    # a random member function, re-expressed through zero-padded top
    # coefficients, evaluates identically
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 1.0, 257)
    top = collection.top
    psi_top = top.basis_matrix(x)
    for member in collection:
        assert member.shares_prefix_with(top)
        coef = rng.standard_normal(member.dim)
        direct = coef @ member.basis_matrix(x)
        padded = np.zeros(top.dim)
        padded[: member.dim] = coef
        np.testing.assert_allclose(padded @ psi_top, direct, atol=1e-10)


@pytest.mark.parametrize("pieces,degree_bound", [((1, 2, 6), 2), ((1, 3), 3), ((1, 2, 4), 2), ((2, 4, 8, 16), 3)])
def test_polynomial_chain_basis_moves_with_its_inputs_by_rounding_only(monkeypatch, pieces, degree_bound):
    # last-bit noise in the quadrature weights must not rotate the basis inside a level
    reference = piecewise_polynomial_collection(pieces, degree_bound).top.chain.transform
    rng = np.random.default_rng(5)

    def noisy_nodes(breakpoints, order):
        x, w = piecewise_nodes(breakpoints, order)
        return x, w * (1.0 + rng.choice([-1.0, 1.0], w.size) * 2.0**-52)

    monkeypatch.setattr(basis, "piecewise_nodes", noisy_nodes)
    moved = piecewise_polynomial_collection(pieces, degree_bound).top.chain.transform
    assert np.max(np.abs(moved - reference)) <= 1e-12


def test_helmert_contrasts_are_orthonormal_and_centered():
    for r in (2, 3, 5, 8):
        h = helmert_contrasts(r)
        np.testing.assert_allclose(h @ h.T, np.eye(r - 1), atol=1e-14)
        np.testing.assert_allclose(h.sum(axis=1), 0.0, atol=1e-14)
        # the chain's closed-form contrasts, at the sub-cell midpoints, are these rows bit for bit
        mids = (np.arange(r) + 0.5) / r
        np.testing.assert_array_equal(histogram_collection([1, r]).top.basis_matrix(mids)[1:], math.sqrt(r) * h)


def test_histogram_chain_requires_divisors():
    with pytest.raises(ValueError):
        histogram_collection([2, 3])
    with pytest.raises(ValueError):
        histogram_collection([])
    with pytest.raises(ValueError):
        piecewise_polynomial_collection([2, 5], 2)
    # counts beyond the array index range are refused before any index is computed
    with pytest.raises(ValueError, match=str(2**63)):
        histogram_collection([2**63])
    with pytest.raises(ValueError, match=str(10**23)):
        piecewise_polynomial_collection([1, 10**23], 2)


def test_collection_counts():
    coll = histogram_collection([1, 2, 4])
    assert coll.cardinality == 3
    assert coll.top_index == 2
    assert coll.top.dim == 4
    assert coll.c1 == 1.0


def test_sup_norm_control_histogram_and_fourier():
    report = check_sup_norm_control(HistogramModel(8), trials=1000, rng_seed=5)
    assert report.holds
    assert report.empirical_ratio <= 1.0 + 1e-9
    report = check_sup_norm_control(FourierModel(2), trials=1000, rng_seed=5)
    assert report.holds
    assert report.empirical_ratio <= 1.0 + 1e-9


def test_sup_norm_control_dim_one_is_exact():
    report = check_sup_norm_control(HistogramModel(1), trials=10, rng_seed=1)
    assert report.empirical_ratio == pytest.approx(1.0, abs=1e-12)
    assert report.holds


def test_piecewise_poly_sup_norm_constant():
    # computed numerically; lands on sqrt(degree_bound) for Legendre pieces
    assert PiecewisePolynomialModel(3, 2).c1 == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert PiecewisePolynomialModel(2, 4).c1 == pytest.approx(2.0, abs=1e-6)
    report = check_sup_norm_control(PiecewisePolynomialModel(3, 2), trials=2000, rng_seed=3)
    assert report.holds


def test_dimension_growth_examples():
    # frozen: 2 * sqrt(4) * ln(6 * 3 / 0.1) / 100
    coll = histogram_collection([1, 2, 4])
    report = check_dimension_growth(coll, n=100, beta=0.1)
    assert report.value == pytest.approx(4.0 * math.log(180.0) / 100.0, rel=1e-12)
    assert report.value == pytest.approx(0.2077, abs=5e-4)
    assert report.holds

    # single constant model with beta = 6/e^2 makes the log term exactly 2
    coll1 = histogram_collection([1])
    report = check_dimension_growth(coll1, n=100, beta=6.0 / math.e**2)
    assert report.value == pytest.approx(0.04, rel=1e-12)

    # a top dimension comparable to n^2 blows through the cap
    big = histogram_collection([1, 2, 4, 8, 16, 32, 64, 128])
    assert not check_dimension_growth(big, n=10, beta=0.1).holds

    with pytest.raises(ValueError):
        check_dimension_growth(coll, n=100, beta=1.5)
    with pytest.raises(ValueError):
        check_dimension_growth(coll, n=1, beta=0.1)


@pytest.mark.parametrize("beta", [1e-320, 5e-324])
def test_dimension_growth_survives_a_ratio_beyond_the_float_range(beta):
    # 6 N / beta overflows; its log does not, and the check must not fail falsely
    coll = histogram_collection([1, 2, 4])
    report = check_dimension_growth(coll, n=3000, beta=beta)
    expected = 2.0 * 2.0 * (math.log(6.0 * 3) - math.log(beta)) / 3000
    assert math.isfinite(report.value) and abs(report.value - expected) <= 1e-12
    assert report.holds


def test_sobolev_collection_sizing():
    # floor(100 ** 0.4) = 6
    coll = fourier_collection_for_sobolev(100, 1.0)
    assert coll.cardinality == 6
    assert coll.top.params["cutoff"] == 6
    assert [m.dim for m in coll] == [3, 5, 7, 9, 11, 13]

    # exponent -> 0 collapses to a single cutoff
    assert fourier_collection_for_sobolev(100, 50.0).cardinality == 1

    # gamma = 1/4 gives exponent 1: top cutoff floor(min(n, n^2/ln(n)^2))
    n = 10
    expected = int(min(n, n**2 / math.log(n) ** 2))
    assert fourier_collection_for_sobolev(n, 0.25).cardinality == expected

    with pytest.raises(ValueError):
        fourier_collection_for_sobolev(2, 1.0)
    with pytest.raises(ValueError):
        fourier_collection_for_sobolev(100, 0.0)


def test_fourier_from_dim_rejects_even():
    with pytest.raises(ValueError):
        FourierModel.from_dim(4)
    assert FourierModel.from_dim(5).params["cutoff"] == 2


def test_collection_rejects_non_nested():
    with pytest.raises(ValueError):
        # two standalone histograms do not share a basis prefix
        from densityball.basis import ModelCollection

        ModelCollection([HistogramModel(2), HistogramModel(4)])
