"""Tests for the orthonormal systems and nested collections."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_legendre

from densityball import basis
from densityball._quadrature import piecewise_nodes
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
from densityball.oracle import CosineTiltDensity

from reference import helmert_contrasts


def _orthonormality_nodes(model):
    """Quadrature accurate to well below 1e-8 for products of basis functions.

    Piecewise families integrate exactly (Gauss order >= degree); the
    trigonometric family gets a composite rule with at least 2048 points.
    """
    if isinstance(model, FourierModel):
        panels = np.linspace(0.0, 1.0, max(256, 8 * (model.cutoff + 1)) + 1)
        return piecewise_nodes(panels, 8)
    order = getattr(model, "degree_bound", 1) + 1
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


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label + str(getattr(m, "levels", "")))
def test_orthonormality(model):
    x, w = _orthonormality_nodes(model)
    psi = model.basis_matrix(x)
    gram = (psi * w) @ psi.T  # quadrature Gram matrix under Lebesgue measure
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
        fourier_collection([1, 3, 7]),
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
    reference = piecewise_polynomial_collection(pieces, degree_bound).top.blocks
    rng = np.random.default_rng(5)

    def noisy_nodes(breakpoints, order):
        x, w = piecewise_nodes(breakpoints, order)
        return x, w * (1.0 + rng.choice([-1.0, 1.0], w.size) * 2.0**-52)

    monkeypatch.setattr(basis, "piecewise_nodes", noisy_nodes)
    moved = piecewise_polynomial_collection(pieces, degree_bound).top.blocks
    assert len(moved) == len(piecewise_polynomial_collection(pieces, degree_bound).top.levels)
    for block, ref in zip(moved, reference):
        assert np.max(np.abs(block - ref)) <= 1e-12


def test_polynomial_refinements_run_in_prime_steps():
    expansions = {(1, 8): (1, 2, 4, 8), (1, 6): (1, 2, 6), (1, 1021): (1, 1021), (3, 36): (3, 6, 12, 36)}
    # a Mersenne prime ratio: the bounded search splits nothing, in about 2**16 divisions
    expansions[1, 2**61 - 1] = (1, 2**61 - 1)
    for chain, levels in expansions.items():
        assert PiecewisePolynomialModel(chain[-1], 3, chain).levels == levels
    # histograms keep their levels: Helmert contrasts are closed forms for any ratio
    assert HistogramModel(8, (1, 8)).levels == (1, 8)
    # members follow the chain the caller gave, and every step block has a prime ratio
    coll = piecewise_polynomial_collection([1, 8], 3)
    assert [model.levels for model in coll] == [(1,), (1, 2, 4, 8)]
    assert [block.shape for block in coll.top.blocks] == [(3, 3), (6, 3), (6, 3), (6, 3)]


def test_a_large_polynomial_ratio_sums_in_little_memory():
    # (1, 1024) runs as the ten steps of the dyadic chain, not through one (4096, 4092) block
    top = piecewise_polynomial_collection([1, 1024], 4).top
    dyadic = piecewise_polynomial_collection([2**k for k in range(11)], 4).top
    x = np.random.default_rng(1021).beta(2.0, 5.0, 4000)
    tracemalloc.start()
    try:
        sums = top.basis_sums(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    for got, want in zip(sums, dyadic.basis_sums(x)):
        np.testing.assert_array_equal(got, want)


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
    # a fractional, non-finite, bool or beyond-float size is refused, not truncated
    for build in (
        lambda: PiecewisePolynomialModel(3, 2.5),
        lambda: FourierModel(2.5),
        lambda: FourierModel.from_dim(5.5),
        lambda: HistogramModel(4, [1, 2.5, 4]),
        lambda: fourier_collection([3, 5.5]),
        lambda: piecewise_polynomial_collection([1, 3], 2.5),
        lambda: HistogramModel(math.inf),
        lambda: HistogramModel(math.nan),
        lambda: FourierModel(math.inf),
        lambda: FourierModel.from_dim(math.nan),
        lambda: PiecewisePolynomialModel(3, math.inf),
        lambda: fourier_collection([3, math.inf]),
        lambda: HistogramModel(True),
        lambda: FourierModel(10**400),
        lambda: PiecewisePolynomialModel(3, np.bool_(True)),
    ):
        with pytest.raises(ValueError, match="whole number"):
            build()
    # a whole float is its int
    assert HistogramModel(4.0, [1, 2.0, 4]).levels == (1, 2, 4)
    assert FourierModel.from_dim(5.0).label == "fourier-5"
    assert PiecewisePolynomialModel(3.0, 2.0).label == "poly-3x2"


def test_collection_counts():
    coll = histogram_collection([1, 2, 4])
    assert len(coll) == 3
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


@pytest.mark.parametrize("count", [1, 2, 3, 4, 12, 20])
def test_legendre_recurrence_matches_scipy(count):
    rough = np.random.default_rng(count).uniform(-1.0, 1.0, 500)
    u = np.concatenate([np.linspace(-1.0, 1.0, 2001), [0.0, -1.0, 1.0], rough])
    table = basis._legendre_table(u, count)
    assert table.shape == (count, u.size)
    for k in range(count):
        np.testing.assert_allclose(table[k], eval_legendre(k, u), rtol=0, atol=1e-13)
    grid = u[:12].reshape(3, 4)
    assert np.array_equal(basis._legendre_table(grid, count), table[:, :12].reshape(count, 3, 4))


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
    # n must be finite: inf used to give holds=True with value 0, and 10**400 an OverflowError
    for n in (math.inf, 10**400):
        with pytest.raises(ValueError, match="finite"):
            check_dimension_growth(coll, n=n, beta=0.1)
        with pytest.raises(ValueError, match="finite"):
            fourier_collection_for_sobolev(n, 1.0)


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
    assert len(coll) == 6
    assert coll.top.cutoff == 6
    assert [m.dim for m in coll] == [3, 5, 7, 9, 11, 13]

    # exponent -> 0 collapses to a single cutoff
    assert len(fourier_collection_for_sobolev(100, 50.0)) == 1

    # gamma = 1/4 gives exponent 1: top cutoff floor(min(n, n^2/ln(n)^2))
    n = 10
    expected = int(min(n, n**2 / math.log(n) ** 2))
    assert len(fourier_collection_for_sobolev(n, 0.25)) == expected

    with pytest.raises(ValueError):
        fourier_collection_for_sobolev(2, 1.0)
    with pytest.raises(ValueError):
        fourier_collection_for_sobolev(100, 0.0)


def test_dimension_growth_refuses_a_nan_sample_size():
    with pytest.raises(ValueError, match="^n must be a finite whole number"):
        check_dimension_growth(histogram_collection([1, 2]), math.nan, 0.1)


@pytest.mark.parametrize("n", [1e160, 1e200])
def test_sobolev_collection_refuses_a_top_dimension_beyond_the_index_range(n):
    # n ** 2 used to overflow with an OverflowError; the top cutoff n ** 0.4 is beyond 2**62
    with pytest.raises(ValueError, match="array index range"):
        fourier_collection_for_sobolev(n, 1.0)


@pytest.mark.parametrize("n", [1e160, 1e200, sys.float_info.max])
def test_sobolev_collection_takes_a_huge_n_with_a_cutoff_in_range(n):
    # at gamma = 100 the rate term is n ** (1 / 200.5), far below the overflowing cap n^2 / (ln n)^2
    coll = fourier_collection_for_sobolev(n, 100.0)
    assert coll.top.cutoff == max(int(n ** (1 / 200.5)), 1)


def test_sobolev_collection_refuses_more_models_than_it_holds_before_building_any(monkeypatch):
    # n = 1e30 at gamma = 1 gives a top cutoff of 1e12: about a month of model building
    built = []
    monkeypatch.setattr(basis, "fourier_collection", built.append)
    with pytest.raises(ValueError, match=r"^n = 1e\+30 at gamma = 1 gives \d+ models, more than the 1048576"):
        fourier_collection_for_sobolev(10**30, 1.0)
    # at gamma = 1/4 the top cutoff is n: 2**20 models are built, one more is refused
    with pytest.raises(ValueError, match="gives 1048577 models"):
        fourier_collection_for_sobolev(2**20 + 1, 0.25)
    assert built == []
    fourier_collection_for_sobolev(2**20, 0.25)
    assert built == [range(3, 2 * 2**20 + 2, 2)]


def test_sobolev_collection_refuses_a_nan_smoothness():
    with pytest.raises(ValueError, match="^gamma must be finite"):
        fourier_collection_for_sobolev(100, math.nan)


OUTSIDE_MODELS = {
    "histogram": lambda: HistogramModel(4, [2, 4]),
    "fourier": lambda: FourierModel(2),
    "piecewise-polynomial": lambda: PiecewisePolynomialModel(4, 2, [2, 4]),
}


@pytest.mark.parametrize("point", [-0.5, 1.5, math.nan])
@pytest.mark.parametrize("family", list(OUTSIDE_MODELS))
def test_every_family_refuses_points_outside_the_unit_interval(family, point):
    # a histogram cell index would wrap (-0.5 in cell 2) or clip (1.5 in cell 3)
    model = OUTSIDE_MODELS[family]()
    methods = [model.basis_matrix, model.basis_sums]
    if family == "histogram":
        methods.append(model.cell_index)
    for method in methods:
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            method([0.25, point])


def test_fourier_from_dim_rejects_even():
    with pytest.raises(ValueError):
        FourierModel.from_dim(4)
    assert FourierModel.from_dim(5).cutoff == 2


def test_collection_rejects_non_nested():
    with pytest.raises(ValueError):
        # two standalone histograms do not share a basis prefix
        from densityball.basis import ModelCollection

        ModelCollection([HistogramModel(2), HistogramModel(4)])


@pytest.mark.parametrize(
    "chain,degree_bound", [((3, 6, 12), None), ((1, 4, 8), None), ((2, 4, 8), 3), ((1, 3, 9), 2)]
)
def test_a_standalone_model_is_the_first_level_of_a_chain_bit_for_bit(chain, degree_bound):
    def make(count, chain=None):
        if degree_bound is None:
            return HistogramModel(count, chain)
        return PiecewisePolynomialModel(count, degree_bound, chain)

    standalone, first, top = make(chain[0]), make(chain[0], chain), make(chain[-1], chain)
    assert vars(standalone) == vars(first) and standalone.shares_prefix_with(top)
    x = np.concatenate([np.random.default_rng(7).beta(2.0, 5.0, 3000), [0.0, 0.5, 1.0]])
    d = standalone.dim
    for own, lead in zip(standalone.basis_sums(x), top.basis_sums(x)):
        np.testing.assert_array_equal(own, lead[:d])
    np.testing.assert_array_equal(standalone.basis_matrix(x), top.basis_matrix(x)[:d])
    oracle = CosineTiltDensity(0.3, 2)
    np.testing.assert_array_equal(oracle.true_coefficients(standalone), oracle.true_coefficients(first))
    if degree_bound is not None:
        # a histogram's coefficients come from its own cells, a polynomial level's from its own moments
        np.testing.assert_array_equal(oracle.true_coefficients(standalone), oracle.true_coefficients(top)[:d])


def test_any_sequence_of_counts_is_a_chain():
    # a tuple, a list and a range give equal models, whose levels stop at their own count
    for make in (HistogramModel, lambda count, chain: PiecewisePolynomialModel(count, 3, chain)):
        for count, levels in ((2, (2,)), (6, (2, 6))):
            models = [make(count, chain) for chain in ((2, 6), [2, 6], range(2, 7, 4))]
            assert all(vars(model) == vars(models[0]) for model in models)
            assert models[0].levels == levels


def test_polynomial_blocks_are_built_on_first_use():
    # the collection is built on every CLI op; the 4096 x 4092 block of the ratio-1024 level is not
    coll = piecewise_polynomial_collection([1, 1024], 4)
    assert all("blocks" not in vars(model) for model in coll)
    first, top = coll
    first.basis_matrix(np.array([0.25]))
    assert [block.shape for block in vars(first)["blocks"]] == [(4, 4)]
    assert "blocks" not in vars(top)


def test_a_member_nests_by_its_levels_alone():
    # a standalone model nesting in a chain that starts at its count is in test_ball.py
    assert not HistogramModel(2).shares_prefix_with(HistogramModel(4, [1, 4]))
    assert not PiecewisePolynomialModel(2, 3).shares_prefix_with(PiecewisePolynomialModel(4, 2, [2, 4]))
    with pytest.raises(ValueError, match="not a level"):
        HistogramModel(3, [1, 2, 4])
