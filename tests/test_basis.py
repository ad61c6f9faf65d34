"""Tests for the orthonormal systems and nested collections."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_legendre

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
    histogram_collection,
    piecewise_polynomial_collection,
)

from reference import helmert_contrasts


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


def test_basis_matrix_examples():
    # the companion constant function of the trigonometric system
    fourier = FourierModel(2)
    assert np.array_equal(fourier.basis_matrix(np.array([0.0, 0.3, 1.0]))[0], [1.0, 1.0, 1.0])
    # first cosine at zero
    assert fourier.basis_matrix(np.array([0.0]))[1, 0] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    # scaled indicator of the first half cell
    hist = HistogramModel(2)
    values = hist.basis_matrix(np.array([0.25, 0.75]))[0]
    assert values[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert values[1] == 0.0
    # the indicator squares to m on its cell, so it integrates to one
    x, w = piecewise_nodes(hist.breakpoints(), 4)
    np.testing.assert_allclose((hist.basis_matrix(x)[0] ** 2) @ w, 1.0, atol=1e-12)


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


@pytest.mark.parametrize(
    "pieces,degree_bound",
    [((1, 2, 6), 2), ((1, 3), 3), ((1, 2, 4), 2), ((2, 4, 8, 16), 3), ((1, 8), 6), ((1, 2), 8)],
)
def test_polynomial_chain_basis_moves_with_its_inputs_by_rounding_only(monkeypatch, pieces, degree_bound):
    # last-bit noise in the quadrature weights must not rotate the basis inside a level
    reference = [block for _, _, block in piecewise_polynomial_collection(pieces, degree_bound).top.chain.levels]
    rng = np.random.default_rng(5)

    def noisy_nodes(breakpoints, order):
        x, w = piecewise_nodes(breakpoints, order)
        return x, w * (1.0 + rng.choice([-1.0, 1.0], w.size) * 2.0**-52)

    monkeypatch.setattr(basis, "piecewise_nodes", noisy_nodes)
    moved = [block for _, _, block in piecewise_polynomial_collection(pieces, degree_bound).top.chain.levels]
    assert len(moved) == len(pieces)
    for block, ref in zip(moved, reference):
        assert np.max(np.abs(block - ref)) <= 1e-12


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


SUP_NORM_MODELS = {
    "histogram-1": lambda: [HistogramModel(1)],
    "histogram-8": lambda: [HistogramModel(8)],
    "histogram-3": lambda: [HistogramModel(3)],
    "fourier-1": lambda: [FourierModel(0)],
    "fourier-5": lambda: [FourierModel(2)],
    "fourier-63": lambda: [FourierModel(31)],
    "poly-3x2": lambda: [PiecewisePolynomialModel(3, 2)],
    "poly-2x4": lambda: [PiecewisePolynomialModel(2, 4)],
    "histogram-chain": lambda: list(histogram_collection([1, 2, 4, 8, 16, 32, 64])),
    "histogram-chain-3-6-24": lambda: list(histogram_collection([3, 6, 24])),
    "fourier-chain": lambda: list(fourier_collection(dims=[1, 3, 5, 9])),
    "poly-chain": lambda: list(piecewise_polynomial_collection([1, 2, 4], 3)),
    "poly-chain-1-8x6": lambda: list(piecewise_polynomial_collection([1, 8], 6)),
}


@pytest.mark.parametrize("family", list(SUP_NORM_MODELS))
def test_sup_norm_ratio_is_exactly_c1(family):
    # sum_l psi_l(x)^2 reaches c1^2 dim on every family, standalone or chained
    for model in SUP_NORM_MODELS[family]():
        report = check_sup_norm_control(model)
        assert report.empirical_ratio == pytest.approx(model.c1, abs=1e-9)
        assert report.holds


@pytest.mark.parametrize("family", list(SUP_NORM_MODELS))
def test_sup_norm_check_catches_an_understated_c1(family):
    for model in SUP_NORM_MODELS[family]():
        model.c1 *= 0.9
        report = check_sup_norm_control(model)
        assert not report.holds
        assert report.empirical_ratio == pytest.approx(model.c1 / 0.9, abs=1e-9)


def test_unit_ball_sup_norm_is_chunked(monkeypatch):
    # a top dimension above CHUNK_ENTRIES / points takes several chunks, same value
    model = histogram_collection([2**k for k in range(11)]).top
    whole = basis.unit_ball_sup_norm(model)
    monkeypatch.setattr(basis, "CHUNK_ENTRIES", model.dim * 7)
    assert basis.unit_ball_sup_norm(model) == whole
    assert whole == pytest.approx(math.sqrt(model.dim), rel=1e-12)


@pytest.mark.parametrize("n", [5, 5000])
def test_member_sums_are_the_prefix_of_the_top_sums_bit_for_bit(monkeypatch, n):
    # many chunks at n = 5000; at n = 5 one power block holds every trigonometric power,
    # and these points once rounded FourierModel(1)'s Q apart from FourierModel(2)'s
    monkeypatch.setattr(basis, "CHUNK_ENTRIES", 1000)
    x = np.array([0.0, 0.0, 0.0, 0.3125, 0.375]) if n == 5 else np.random.default_rng(4).random(n)
    for coll in (
        piecewise_polynomial_collection([1, 2, 4, 8], 3),
        histogram_collection([1, 2, 6, 12]),
        fourier_collection(dims=[1, 3, 5, 9, 17]),
    ):
        sums, squares = coll.top.basis_sums(x)
        for model in coll:
            member_sums, member_squares = model.basis_sums(x)
            assert np.array_equal(member_sums, sums[: model.dim]), model.label
            assert np.array_equal(member_squares, squares[: model.dim]), model.label


def test_long_polynomial_chain_sums_match_the_basis_free_kernel():
    # sum_l psi_l(x)^2 over a member's first dim functions is its reproducing kernel on the
    # diagonal, pieces sum_k (2k+1) P_k(u)^2, whatever orthonormal basis spans the member
    coll = piecewise_polynomial_collection([2**k for k in range(11)], 4)
    x = np.random.default_rng(1024).beta(2.0, 5.0, 100_000)
    tracemalloc.start()
    try:
        squares = coll.top.basis_sums(x)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    for model in coll:
        pieces = model.pieces
        u = 2.0 * (x * pieces - np.minimum(np.floor(x * pieces), pieces - 1)) - 1.0
        kernel = pieces * sum((2 * k + 1) * eval_legendre(k, u) ** 2 for k in range(4)).sum()
        assert abs(squares[: model.dim].sum() - kernel) <= 1e-12 * kernel, model.label


def test_piecewise_poly_sup_norm_constant():
    # closed form sqrt(degree_bound); test_sup_norm_ratio_is_exactly_c1 checks it is attained
    for r in range(1, 13):
        for pieces in (1, 3):
            assert PiecewisePolynomialModel(pieces, r).c1 == math.sqrt(r)
    assert piecewise_polynomial_collection([1, 2, 4], 5).c1 == math.sqrt(5)


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
