"""Tests for the Monte Carlo experiment harness."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densityball import weights
from densityball.ball import order_statistic_rank, resampled_quantile_radius
from densityball.basis import HistogramModel
from densityball.estimators import (
    Sample,
    projection_error_sq,
    resampling_statistics,
)
from densityball.experiments import (
    cell_error_sq,
    cell_resampling_statistics,
    cell_resampling_variance,
    coverage_experiment,
    normalized_difference_experiment,
)
from densityball.oracle import CosineTiltDensity, HistogramDensity, UniformDensity, sample_from
from densityball.weights import (
    CellWeightDrawer,
    WeightKind,
    make_scheme,
    replication_rng,
    sample_weights_batch,
)

from reference import resampling_variance


def test_closed_form_column_is_centered():
    # the closed-form normalized difference has mean zero by construction
    result = normalized_difference_experiment(
        UniformDensity(), n=30, dim=6, n_draws=20, reps=600, seed=15
    )
    col = result.closed_form
    se = col.std(ddof=1) / math.sqrt(col.size)
    assert abs(col.mean()) <= 4.0 * se


def test_experiment_reproducibility():
    kwargs = dict(n=20, dim=4, n_draws=30, reps=5, seed=77)
    a = normalized_difference_experiment(UniformDensity(), **kwargs)
    b = normalized_difference_experiment(UniformDensity(), **kwargs)
    np.testing.assert_array_equal(a.monte_carlo, b.monte_carlo)
    np.testing.assert_array_equal(a.closed_form, b.closed_form)

    ca = coverage_experiment(UniformDensity(), alphas=[0.5, 0.8], **kwargs)
    cb = coverage_experiment(UniformDensity(), alphas=[0.8, 0.5], **kwargs)
    assert ca == cb  # alpha order is normalized


def test_summary_fields():
    result = normalized_difference_experiment(
        UniformDensity(), n=20, dim=4, n_draws=10, reps=7, seed=3
    )
    summary = result.summary()
    for col_name, col in (("monte_carlo", result.monte_carlo), ("closed_form", result.closed_form)):
        mean, sd, lo, hi = summary[col_name]
        assert mean == pytest.approx(col.mean())
        assert sd == pytest.approx(col.std(ddof=1))
        assert lo == col.min() and hi == col.max()


def test_coverage_matches_quantile_threshold():
    # the experiment's per-alpha threshold is the resampled quantile at the
    # complementary level, replayed here from the same replication stream
    oracle = UniformDensity()
    n, dim, n_draws, seed = 25, 5, 200, 31
    alphas = [0.6, 0.9]
    table = coverage_experiment(oracle, n=n, dim=dim, n_draws=n_draws, reps=1, alphas=alphas, seed=seed)
    model = HistogramModel(dim)
    scheme = make_scheme("efron", n)
    rng = replication_rng(seed, 0)
    sample = sample_from(oracle, n, rng)
    error = projection_error_sq(sample, model, oracle)
    for alpha, covered in table:
        threshold = resampled_quantile_radius(
            sample, model, scheme, 1.0 - alpha, n_draws, rng=_replay_weights_rng(seed)
        )
        assert covered == float(error <= threshold)


def _replay_weights_rng(seed):
    # replays the weight draws of replication 0: consume the sample first
    rng = replication_rng(seed, 0)
    UniformDensity().sample_points(25, rng)
    return rng


def test_validation_errors():
    with pytest.raises(ValueError):
        normalized_difference_experiment(UniformDensity(), n=20, dim=4, n_draws=10, reps=0)
    with pytest.raises(ValueError):
        coverage_experiment(UniformDensity(), n=20, dim=4, n_draws=200, reps=2, alphas=[])
    with pytest.raises(ValueError):
        coverage_experiment(UniformDensity(), n=20, dim=4, n_draws=200, reps=2, alphas=[1.2])


def test_rank_convention_endpoints():
    assert order_statistic_rank(0.5, 10) == 5
    assert order_statistic_rank(0.55, 10_000) == 5500
    assert order_statistic_rank(1.0 - 1e-15, 300) == 300


def _one_call_weights(scheme, size, rng):
    # per-point weights as one unchunked integer draw: the seeded 0.2.0 stream
    n = scheme.n
    if scheme.kind is WeightKind.EFRON_MULTINOMIAL:
        idx = rng.integers(0, n, size=(size, n)) + n * np.arange(size)[:, None]
        return np.bincount(idx.ravel(), minlength=size * n).reshape(size, n).astype(float)
    return 2.0 * rng.integers(0, 2, size=(size, n)) - 1.0


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["efron", "rademacher"]),
    oracle=st.sampled_from([UniformDensity(), CosineTiltDensity(0.5, 3), HistogramDensity([0.2, 1.8, 1.0])]),
    n=st.integers(2, 80),
    dim=st.integers(1, 40),
    size=st.integers(1, 40),
    chunk=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
# signs that cancel within every cell: the cell sums are 0, the per-point reference is not
@example(kind="rademacher", oracle=HistogramDensity([0.2, 1.8, 1.0]), n=74, dim=2, size=4, chunk=1, seed=642)
def test_cell_statistics_match_the_per_point_references(kind, oracle, n, dim, size, chunk, seed):
    # a chunk of `chunk` entries holds max(chunk // n, 1) rows, so most batches span several
    sample = Sample(oracle.sample_points(n, np.random.default_rng(seed)))
    model = HistogramModel(dim)
    scheme = make_scheme(kind, n)
    cells = model.cell_index(sample.points)
    counts = np.bincount(cells, minlength=dim)
    with mock.patch.object(weights, "DRAW_CHUNK_ENTRIES", chunk):
        drawer = CellWeightDrawer(scheme, dim, size)
        blocks = drawer.blocks([np.random.default_rng(seed + 1)], cells[None], counts[None])
        cell_w = np.concatenate([sums[0] for _, _, sums in blocks])
        point_w = sample_weights_batch(scheme, size, np.random.default_rng(seed + 1))
    np.testing.assert_array_equal(point_w, _one_call_weights(scheme, size, np.random.default_rng(seed + 1)))

    stats = cell_resampling_statistics(counts, cell_w, scheme)
    reference = resampling_statistics(sample, model, scheme, point_w)
    mean_w = point_w.mean(axis=1, keepdims=True)
    # the terms that cancel in each cell sum are the |W_i| of its points
    abs_cell_w = np.array([np.bincount(cells, weights=np.abs(w), minlength=dim) for w in point_w])
    terms = scheme.normalizer * dim / n**2 * ((abs_cell_w + np.abs(mean_w) * counts) ** 2).sum(axis=1)
    assert np.all(np.abs(stats - reference) <= 1e-12 * terms)

    assert cell_error_sq(counts, oracle.true_coefficients(model)) == projection_error_sq(sample, model, oracle)
    closed = cell_resampling_variance(counts)
    assert abs(closed - resampling_variance(sample, model)) <= 1e-12 * dim / (n - 1)


def _float_cell_statistics(counts, cell_weights, scheme):
    # the float expression of 0.3.0 for both schemes: deviations from mean(W_r) c_k
    n, d = scheme.n, counts.shape[-1]
    dev = cell_weights.sum(axis=-1, keepdims=True) / n * counts[..., None, :]
    np.subtract(cell_weights, dev, out=dev)
    rows = dev.reshape(-1, d)
    return (scheme.normalizer * (d / (n * n)) * np.einsum("ij,ij->i", rows, rows)).reshape(dev.shape[:-1])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 300), dim=st.integers(1, 60), size=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_integer_efron_statistics_equal_the_float_expression(n, dim, size, seed):
    rng = np.random.default_rng(seed)
    cells = np.minimum(rng.integers(0, dim, size=n), rng.integers(0, dim, size=n))  # uneven counts
    counts = np.bincount(cells, minlength=dim)
    scheme = make_scheme("efron", n)
    blocks = CellWeightDrawer(scheme, dim, size).blocks([rng], cells[None], counts[None])
    sums = np.concatenate([s[0] for _, _, s in blocks])
    assert sums.dtype.kind == "i"
    expected = _float_cell_statistics(counts, sums, scheme)
    assert np.array_equal(cell_resampling_statistics(counts, sums, scheme), expected)


def _per_point_replications(oracle, n, dim, n_draws, reps, seed, kind):
    # the per-point replication loop of 0.2.0: dense basis, one weight draw per batch
    model = HistogramModel(dim)
    scheme = make_scheme(kind, n)
    for j in range(reps):
        rng = replication_rng(seed, j)
        sample = Sample(oracle.sample_points(n, rng))
        error = projection_error_sq(sample, model, oracle)
        stats = resampling_statistics(sample, model, scheme, _one_call_weights(scheme, n_draws, rng))
        yield error, stats, resampling_variance(sample, model)


@pytest.mark.parametrize("kind", ["efron", "rademacher"])
def test_experiments_keep_the_seeded_stream(kind):
    # n * n_draws = 280000 weight entries span several draw chunks
    oracle = CosineTiltDensity(0.4, 2)
    n, dim, n_draws, reps, seed = 40, 12, 7000, 25, 19
    alphas = [round(0.05 * i, 2) for i in range(1, 20)]
    assert n * n_draws > weights.DRAW_CHUNK_ENTRIES

    hits = np.zeros(len(alphas))
    ranks = np.array([order_statistic_rank(a, n_draws) for a in alphas])
    for error, stats, _ in _per_point_replications(oracle, n, dim, n_draws, reps, seed, kind):
        hits += error <= np.sort(stats)[ranks - 1]
    expected = [(a, float(h / reps)) for a, h in zip(alphas, hits)]
    got = coverage_experiment(oracle, n, dim, n_draws, reps, alphas, seed=seed, kind=kind)
    assert got == expected

    scale = n / math.sqrt(dim)
    result = normalized_difference_experiment(oracle, n, dim, 300, reps, seed=seed, kind=kind)
    replays = list(_per_point_replications(oracle, n, dim, 300, reps, seed, kind))
    for j, (error, stats, closed) in enumerate(replays):
        mc, cf = scale * (error - float(np.mean(stats))), scale * (error - closed)
        tol = 1e-12 * scale * (error + max(float(np.mean(stats)), closed))
        assert abs(result.monte_carlo[j] - mc) <= tol
        assert abs(result.closed_form[j] - cf) <= tol


def _assert_matches_per_point_replications(oracle, n, dim, n_draws, reps, seed, kind):
    alphas = [round(0.05 * i, 2) for i in range(1, 20)]
    replays = list(_per_point_replications(oracle, n, dim, n_draws, reps, seed, kind))
    ranks = np.array([order_statistic_rank(a, n_draws) for a in alphas])
    hits = sum(error <= np.sort(stats)[ranks - 1] for error, stats, _ in replays)
    expected = [(a, float(h / reps)) for a, h in zip(alphas, hits)]
    assert coverage_experiment(oracle, n, dim, n_draws, reps, alphas, seed=seed, kind=kind) == expected

    scale = n / math.sqrt(dim)
    result = normalized_difference_experiment(oracle, n, dim, n_draws, reps, seed=seed, kind=kind)
    for j, (error, stats, closed) in enumerate(replays):
        mc, cf = scale * (error - float(np.mean(stats))), scale * (error - closed)
        tol = 1e-12 * scale * (error + max(float(np.mean(stats)), closed))
        assert abs(result.monte_carlo[j] - mc) <= tol
        assert abs(result.closed_form[j] - cf) <= tol


# (n, n_draws, reps, replications per block, replications per draw group,
# draw rows per draw block) at dim 7, the shipped chunk of 2**16 weight
# entries and cap of 2**10 replications
BLOCK_CASES = {
    # blocks of 93, 93, 14: groups of 13 with a short last one of 2, then 13 and a lone sample
    "reps-not-a-multiple-of-the-block": (50, 100, 200, 93, 13, 100),
    "reps-within-one-block": (50, 100, 5, 93, 13, 100),
    "one-replication-fills-the-chunk": (64, 1024, 3, 9, 1, 1024),
    "one-replication-spans-blocks": (50, 2000, 6, 4, 1, 1310),
    "replications-per-block-capped": (4, 2, 1500, weights.MAX_BLOCK_SAMPLES, weights.MAX_BLOCK_SAMPLES, 2),
    # the cell sums of 3 * 3000 draws fit the chunk, those of 4 * 3000 do not
    "replications-per-block-capped-by-the-chunk": (20, 3000, 7, 3, 1, 3000),
    # the points of 6 samples of 10,000 fit the chunk, those of 7 do not;
    # blocks of 6 (two groups of 3) and 2
    "replications-per-block-capped-by-their-points": (10000, 2, 8, 6, 3, 2),
}


@pytest.mark.parametrize("kind", ["efron", "rademacher"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_batched_replications_match_the_per_point_references_at_block_boundaries(kind, case):
    n, n_draws, reps, samples, group, rows = BLOCK_CASES[case]
    dim, seed = 7, 23
    drawer = CellWeightDrawer(make_scheme(kind, n), dim, n_draws)
    assert (drawer.samples, drawer.group, drawer.rows) == (samples, group, rows)
    _assert_matches_per_point_replications(HistogramDensity([0.5, 1.5, 1.0]), n, dim, n_draws, reps, seed, kind)
