"""Tests for model selection and the confidence ball."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densityball.ball import (
    ball_from_doc,
    ball_to_doc,
    build_confidence_ball,
    select_model_index,
)
from densityball.basis import (
    CHUNK_ENTRIES,
    FourierModel,
    HistogramModel,
    fourier_collection,
    histogram_collection,
    log_ratio,
    piecewise_polynomial_collection,
)
from densityball.bounds import EPSILON_GRID, BoundConfig, bias_deviation_constant, variance_deviation_constant
from densityball import estimators
from densityball.estimators import Sample, project
from densityball.experiments import order_statistic_rank
from densityball.oracle import UniformDensity, sample_from
from densityball.weights import make_scheme, replication_rng

import reference
from reference import projection_bias_estimate, resampling_variance

CFG = BoundConfig(beta=0.1, m2=2.0, m_inf=2.0)


def test_single_model_collection():
    coll = histogram_collection([4])
    sample = sample_from(UniformDensity(), 30, replication_rng(1, 0))
    ball = build_confidence_ball(sample, coll, CFG)
    assert ball.selected_model == "histogram-4"
    assert len(ball.report) == 1
    assert ball.radius == ball.report[0].radius


def test_tie_break_prefers_smaller_dimension():
    assert select_model_index([5.0, 5.0], [4, 2]) == 1
    assert select_model_index([5.0, 5.0], [2, 4]) == 0
    assert select_model_index([3.0, 5.0], [4, 2]) == 0
    # invariance under a common positive rescaling
    values = [2.0, 7.0, 2.0, 9.0]
    dims = [8, 1, 2, 4]
    base = select_model_index(values, dims)
    assert select_model_index([10.0 * v for v in values], dims) == base
    with pytest.raises(ValueError):
        select_model_index([], [])


def test_uniform_density_selects_the_constant_model():
    coll = histogram_collection([1, 2, 4, 8])
    chosen_smallest = 0
    reps = 500
    for j in range(reps):
        sample = sample_from(UniformDensity(), 100, replication_rng(77, j))
        ball = build_confidence_ball(sample, coll, CFG)
        chosen_smallest += ball.selected_index == 0
    assert chosen_smallest / reps >= 0.95


def test_contains_center_and_boundary():
    coll = histogram_collection([1, 2, 4])
    sample = sample_from(UniformDensity(), 40, replication_rng(2, 0))
    ball = build_confidence_ball(sample, coll, CFG)
    center_padded = np.zeros(ball.top_dim)
    center_padded[: ball.center.size] = ball.center
    assert ball.contains(center_padded)
    boundary = center_padded.copy()
    boundary[0] += ball.radius
    assert ball.contains(boundary)  # closed ball
    outside = center_padded.copy()
    outside[0] += ball.radius * (1.0 + 1e-9)
    assert not ball.contains(outside)
    with pytest.raises(ValueError):
        ball.contains(np.zeros(ball.top_dim + 1))
    with pytest.raises(ValueError):
        ball.contains(center_padded, residual_norm_sq=-1.0)


def test_contains_with_residual_mass():
    coll = histogram_collection([1, 2])
    sample = sample_from(UniformDensity(), 40, replication_rng(3, 0))
    ball = build_confidence_ball(sample, coll, CFG)
    center_padded = np.zeros(ball.top_dim)
    center_padded[: ball.center.size] = ball.center
    r_sq = ball.radius**2
    assert ball.contains(center_padded, residual_norm_sq=r_sq)
    assert not ball.contains(center_padded, residual_norm_sq=r_sq * (1.0 + 1e-9))


def test_contains_refuses_nan():
    # a NaN distance compares False with every radius, which would read as "outside the ball"
    coll = histogram_collection([1, 2])
    sample = sample_from(UniformDensity(), 40, replication_rng(3, 0))
    ball = build_confidence_ball(sample, coll, CFG)
    center_padded = np.zeros(ball.top_dim)
    center_padded[: ball.center.size] = ball.center
    with pytest.raises(ValueError, match="NaN"):
        ball.contains(np.where(np.arange(ball.top_dim) == 1, math.nan, center_padded))
    with pytest.raises(ValueError, match="residual_norm_sq"):
        ball.contains(center_padded, residual_norm_sq=math.nan)
    # an infinite distance is a distance: outside; an infinite residual_norm_sq is no norm: refused
    assert not ball.contains(center_padded + math.inf)
    with pytest.raises(ValueError, match="residual_norm_sq"):
        ball.contains(center_padded, residual_norm_sq=math.inf)


def test_a_standalone_first_level_gives_the_ball_of_its_chain():
    # HistogramModel(2) is the first level of HistogramModel(4, [2, 4]): same basis, same ball
    from densityball.basis import ModelCollection

    sample = sample_from(UniformDensity(), 60, replication_rng(4, 0))
    mixed = ModelCollection([HistogramModel(2), HistogramModel(4, [2, 4])])
    ball = build_confidence_ball(sample, mixed, CFG)
    assert ball_to_doc(ball) == ball_to_doc(build_confidence_ball(sample, histogram_collection([2, 4]), CFG))


def test_ball_determinism_and_doc_round_trip():
    import json

    coll = histogram_collection([1, 2, 4])
    balls = []
    for _ in range(2):
        sample = sample_from(UniformDensity(), 50, replication_rng(9, 0))
        balls.append(build_confidence_ball(sample, coll, CFG))
    a, b = balls
    assert a.selected_model == b.selected_model
    assert a.radius == b.radius
    np.testing.assert_array_equal(a.center, b.center)
    assert a.report == b.report

    doc = ball_to_doc(a)
    text = json.dumps(doc, indent=2)
    rebuilt = ball_from_doc(json.loads(text))
    assert rebuilt.selected_model == a.selected_model
    assert rebuilt.radius == a.radius
    assert rebuilt.report == a.report
    np.testing.assert_array_equal(rebuilt.center, a.center)
    assert json.dumps(ball_to_doc(rebuilt), indent=2) == text


def test_growth_flag_surfaces_without_blocking():
    coll = histogram_collection([1, 2, 4, 8, 16, 32, 64, 128, 256])
    sample = sample_from(UniformDensity(), 20, replication_rng(4, 0))
    ball = build_confidence_ball(sample, coll, CFG)
    assert not ball.growth_check_ok
    assert ball.radius > 0


def test_order_statistic_rank_convention():
    assert order_statistic_rank(1.0 - 1e-12, 100) == 100
    assert order_statistic_rank(0.95, 10_000) == 9500
    assert order_statistic_rank(0.5, 101) == 51  # ceil(50.5)
    assert order_statistic_rank(1e-12, 50) == 1


def test_fourier_collection_ball_runs():
    coll = fourier_collection([1, 3, 5])
    sample = sample_from(UniformDensity(), 60, replication_rng(10, 0))
    ball = build_confidence_ball(sample, coll, CFG)
    assert ball.top_dim == 5
    assert math.isfinite(ball.radius)
    assert len(ball.report) == 3
    # report invariants: the bound dominates the estimate, radii are consistent
    for row in ball.report:
        assert row.variance_bound >= row.variance_estimate
        assert row.radius == pytest.approx(math.sqrt(max(row.radius_sq, 0.0)), rel=1e-12)


COLLECTIONS = {
    "histogram": lambda: histogram_collection([1, 2, 4, 8, 16]),
    "fourier": lambda: fourier_collection(dims=[1, 3, 5, 9]),
    "piecewise-polynomial": lambda: piecewise_polynomial_collection([1, 2, 4], 2),
}


@pytest.mark.parametrize("size", [2, 57, "three-chunks"])
@pytest.mark.parametrize("family", list(COLLECTIONS))
def test_one_pass_matches_per_model_references(family, size):
    coll = COLLECTIONS[family]()
    top = coll.top
    n = 2 * (CHUNK_ENTRIES // top.dim) + 7 if size == "three-chunks" else size
    sample = Sample(np.random.default_rng(n).beta(2.0, 5.0, n))
    cfg = BoundConfig(beta=0.1, m2=2.0, m_inf=2.0, eta=0.05, kappa_scale=1e-3)
    ball = build_confidence_ball(sample, coll, cfg)

    psi = top.basis_matrix(sample.points)
    sums = psi.sum(axis=1)
    squares = (psi * psi).sum(axis=1)
    pairs = n * (n - 1.0)
    # the bounds recomputed from their formulas, one model at a time
    c1, c3 = coll.c1, coll.c_m
    variance_level = max(2.0 * log_ratio(2.0 * len(coll), cfg.beta), 2.0)
    bias_level = max(2.0 * log_ratio(6.0 * len(coll), cfg.beta), 2.0)
    d_top = top.dim
    bias_base = cfg.kappa_scale * (1.0 + math.sqrt(min(cfg.m_inf, cfg.m2 * math.sqrt(d_top))))
    bias_base *= math.sqrt(d_top) * bias_level / n
    for model, row in zip(coll, ball.report):
        d = model.dim
        # tolerances are relative to the largest term that cancels in each estimate
        v_scale = squares[:d].sum() / pairs
        b_scale = max((sums[d:] ** 2).sum(), squares[d:].sum()) / pairs
        assert abs(row.variance_estimate - resampling_variance(sample, model)) <= 1e-12 * v_scale
        b_ref = projection_bias_estimate(sample, model, top)
        assert abs(row.bias_estimate - b_ref) <= 1e-12 * b_scale

        norm_part = 1.0 + math.sqrt(min(cfg.m_inf, cfg.m2 * math.sqrt(d), d))
        v = row.variance_estimate + (
            cfg.kappa_scale * variance_deviation_constant(c1, c3) * norm_part * math.sqrt(d) * variance_level / n
        )
        k = min(
            (row.bias_estimate + bias_deviation_constant(eps, c1, c3) * bias_base) / (1.0 - eps)
            for eps in EPSILON_GRID
        )
        assert row.variance_bound == pytest.approx(v, rel=1e-12)
        assert row.bias_bound == pytest.approx(k, rel=1e-12)
        assert row.radius_sq == cfg.eta**2 + row.bias_bound + row.variance_bound
        assert row.clamped == (row.radius_sq < 0.0)
        assert row.radius == math.sqrt(max(row.radius_sq, 0.0))

    center = project(sample, coll.models[ball.selected_index])
    np.testing.assert_allclose(ball.center, center, rtol=0, atol=1e-12 * np.abs(center).max())


CHAIN_PREFIXES = {
    "histogram": lambda levels, degree: histogram_collection([1, 2, 6, 12, 24][:levels]),
    "fourier": lambda levels, degree: fourier_collection(dims=[1, 3, 5, 9, 17][:levels]),
    "piecewise-polynomial": lambda levels, degree: piecewise_polynomial_collection([1, 2, 4, 8][:levels], degree),
}


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(list(CHAIN_PREFIXES)),
    levels=st.integers(1, 5),
    degree=st.integers(1, 4),
    points=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=150),
)
# a trigonometric member's power sums once rounded apart from the top's
@example(family="fourier", levels=3, degree=1, points=[0.0, 0.0, 0.0, 0.3125, 0.375])
@example(family="piecewise-polynomial", levels=1, degree=2, points=[0.0, 0.25])
@example(family="histogram", levels=2, degree=1, points=[0.0, 0.0])
def test_ball_rows_are_the_per_model_views(family, levels, degree, points):
    coll = CHAIN_PREFIXES[family](levels, degree)
    top = coll.top
    sample = Sample(np.array(points))
    n = sample.n
    ball = build_confidence_ball(sample, coll, CFG)

    psi = top.basis_matrix(sample.points)
    sums = psi.sum(axis=1)
    squares = (psi * psi).sum(axis=1)
    pairs = n * (n - 1.0)
    for model, row in zip(coll, ball.report):
        d = model.dim
        # the ball and the per-model functions take the same sums through the same function
        assert row.variance_estimate == estimators.resampling_variance(sample, model)
        assert row.bias_estimate == estimators.projection_bias_estimate(sample, model, top)
        # and the dense definitions agree within the scales of test_one_pass_matches_per_model_references
        v_scale = squares[:d].sum() / pairs
        b_scale = max((sums[d:] ** 2).sum(), squares[d:].sum()) / pairs
        assert abs(row.variance_estimate - resampling_variance(sample, model)) <= 1e-12 * v_scale
        assert abs(row.bias_estimate - projection_bias_estimate(sample, model, top)) <= 1e-12 * b_scale


def test_one_pass_accuracy_on_a_long_histogram_chain():
    # n * d_top = 1e8 basis entries; references are exact integer closed forms
    # of the cell counts, since sum_l psi_l(x)^2 = d on the first d indices.
    dims = [2**k for k in range(11)]
    n = 100_000
    points = np.random.default_rng(1024).beta(2.0, 5.0, n)
    ball = build_confidence_ball(Sample(points), histogram_collection(dims), CFG)
    norms = {}  # Q_d = sum_l (sum_i psi_l(X_i))^2 = d sum_k c_k^2 over the d-cell grid
    for d in dims:
        counts = np.bincount(np.minimum((points * d).astype(int), d - 1), minlength=d)
        norms[d] = d * sum(int(c) ** 2 for c in counts)
    top = dims[-1]
    pairs = n * (n - 1)
    for d, row in zip(dims, ball.report):
        variance = float(Fraction(n * n * d - norms[d], n * pairs))
        bias = float(Fraction(norms[top] - norms[d] - n * (top - d), pairs))
        assert abs(row.variance_estimate - variance) <= 1e-10 * (n * d / pairs)
        assert abs(row.bias_estimate - bias) <= 1e-10 * ((norms[top] + n * top) / pairs)


HISTOGRAM_CHAINS = [tuple(2**j for j in range(k + 1)) for k in range(8)] + [(3, 6, 12), (1, 5, 10, 30)]


def _cell_edges(chain):
    """0, 1, every edge k/m of every level and both float neighbours of each, in [0, 1]."""
    edges = np.concatenate([np.arange(m + 1) / m for m in chain])
    return np.unique(np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]))


@st.composite
def chain_samples(draw):
    """A histogram chain, 2..300 points that favour cell edges, and a permutation of them."""
    chain = draw(st.sampled_from(HISTOGRAM_CHAINS))
    n = draw(st.integers(2, 300))
    point = st.one_of(st.sampled_from(_cell_edges(chain).tolist()), st.floats(0.0, 1.0))
    points = draw(st.lists(point, min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    return chain, np.array(points), np.array(order)


def _assert_counts_match_the_basis_matrix(chain, points):
    for model in histogram_collection(chain):
        sums, squares = model.basis_sums(points)
        ref_sums, ref_squares = reference.basis_sums(model, points)  # the chunked basis_matrix pass
        assert sums.shape == squares.shape == (model.dim,)
        # the terms that cancel in S_l are the |psi_l(x_i)|; Q_l has no cancellation
        psi = model.basis_matrix(points)
        scale = np.abs(psi, out=psi).sum(axis=1)
        assert np.all(np.abs(sums - ref_sums) <= 1e-12 * scale)
        assert np.all(np.abs(squares - ref_squares) <= 1e-12 * ref_squares)


# (1, 2048): one level with a large refinement ratio, whose contrasts are built in closed form
@pytest.mark.parametrize("chain", HISTOGRAM_CHAINS + [(1, 2048)], ids=str)
def test_histogram_counts_match_the_basis_matrix_at_every_cell_edge(chain):
    _assert_counts_match_the_basis_matrix(chain, _cell_edges(chain))


@settings(max_examples=60, deadline=None)
@given(chain_samples())
def test_histogram_counts_match_the_basis_matrix(data):
    chain, points, _ = data
    _assert_counts_match_the_basis_matrix(chain, points)


@settings(max_examples=60, deadline=None)
@given(chain_samples())
def test_histogram_ball_is_invariant_under_permutation(data):
    # the ball depends on the sample through integer cell counts only
    chain, points, order = data
    coll = histogram_collection(chain)
    cfg = BoundConfig(beta=0.1, m2=2.0, m_inf=2.0, eta=0.05, kappa_scale=1e-3)
    ball = build_confidence_ball(Sample(points), coll, cfg)
    shuffled = build_confidence_ball(Sample(points[order]), coll, cfg)
    assert ball_to_doc(shuffled) == ball_to_doc(ball)


@st.composite
def fourier_points(draw, cutoff, n):
    """``n`` points: uniform, or on the lattice ``k / (4 j)``, ``j <= cutoff``, or next to it.

    The lattice holds 0, 1/2 and 1 and the zeros and extrema of every
    ``cos(2 pi j x)`` and ``sin(2 pi j x)``, where rounding is most visible.
    """
    lattice = st.integers(1, max(cutoff, 1)).flatmap(lambda j: st.integers(0, 4 * j).map(lambda k: k / (4 * j)))
    near = st.tuples(lattice, st.sampled_from([None, 0.0, 1.0])).map(
        lambda p: p[0] if p[1] is None else float(np.nextafter(p[0], p[1]))
    )
    return np.array(draw(st.lists(st.one_of(near, st.floats(0.0, 1.0)), min_size=n, max_size=n)))


def _assert_power_sums_match_the_basis_matrix(model, points):
    n = points.size
    sums, squares = model.basis_sums(points)
    ref_sums, ref_squares = reference.basis_sums(model, points)  # the chunked basis_matrix pass
    assert sums.shape == squares.shape == (model.dim,)
    assert sums[0] == squares[0] == n
    assert np.all(np.abs(sums - ref_sums) <= 1e-12 * n)
    assert np.all(np.abs(squares - ref_squares) <= 1e-12 * n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 200), st.integers(2, 400), st.data())
def test_fourier_power_sums_match_the_basis_matrix(cutoff, n, data):
    _assert_power_sums_match_the_basis_matrix(FourierModel(cutoff), data.draw(fourier_points(cutoff, n)))


def test_fourier_power_sums_match_the_basis_matrix_at_cutoff_1000():
    points = np.random.default_rng(1000).random(5000)
    _assert_power_sums_match_the_basis_matrix(FourierModel(1000), points)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True),
    st.integers(2, 300),
    st.sampled_from([0.0, 1e-3, 1.0]),
    st.data(),
)
def test_fourier_ball_is_invariant_under_permutation(cutoffs, n, kappa_scale, data):
    # the sums change only in their summation order, so within rounding
    coll = fourier_collection([2 * j + 1 for j in cutoffs])
    points = data.draw(fourier_points(max(cutoffs), n))
    order = np.array(data.draw(st.permutations(range(n))))
    cfg = BoundConfig(beta=0.1, m2=2.0, m_inf=2.0, eta=0.05, kappa_scale=kappa_scale)
    ball = build_confidence_ball(Sample(points), coll, cfg)
    shuffled = build_confidence_ball(Sample(points[order]), coll, cfg)
    assert shuffled.selected_index == ball.selected_index

    sums, squares = coll.top.basis_sums(points)
    pairs = n * (n - 1.0)
    # the terms that cancel: Q_l and S_l^2 / n in the variance, S_l^2 and Q_l in the bias
    b_scale = ((sums * sums).sum() + squares.sum()) / pairs
    for model, row, moved in zip(coll, ball.report, shuffled.report):
        assert abs(moved.variance_estimate - row.variance_estimate) <= 1e-12 * n * model.dim / pairs
        assert abs(moved.bias_estimate - row.bias_estimate) <= 1e-12 * b_scale


@st.composite
def ball_inputs(draw):
    """A collection, a sample of 2..200 points and bound settings that reach clamped radii."""
    coll = COLLECTIONS[draw(st.sampled_from(list(COLLECTIONS)))]()
    n = draw(st.integers(2, 200))
    points = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    kappa_scale = draw(st.sampled_from([0.0, 1e-3, 1.0]))
    eta = draw(st.sampled_from([0.0, 0.05]))
    return coll, Sample(points), kappa_scale, eta


def _ball_at(inputs, beta):
    coll, sample, kappa_scale, eta = inputs
    cfg = BoundConfig(beta=beta, m2=2.0, m_inf=2.0, eta=eta, kappa_scale=kappa_scale)
    return build_confidence_ball(sample, coll, cfg)


BETAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(ball_inputs(), BETAS)
def test_ball_contains_its_own_center(inputs, beta):
    ball = _ball_at(inputs, beta)
    padded = np.zeros(ball.top_dim)
    padded[: ball.center.size] = ball.center
    assert ball.contains(padded)


@settings(max_examples=60, deadline=None)
@given(ball_inputs(), BETAS)
def test_ball_doc_round_trip_is_exact(inputs, beta):
    ball = _ball_at(inputs, beta)
    rebuilt = ball_from_doc(ball_to_doc(ball))
    assert ball_to_doc(rebuilt) == ball_to_doc(ball)
    assert rebuilt.report == ball.report
    np.testing.assert_array_equal(rebuilt.center, ball.center)


@settings(max_examples=60, deadline=None)
@given(ball_inputs(), BETAS, BETAS)
def test_selected_radius_does_not_increase_with_beta(inputs, beta_a, beta_b):
    low, high = sorted((beta_a, beta_b))
    assert _ball_at(inputs, high).radius <= _ball_at(inputs, low).radius
