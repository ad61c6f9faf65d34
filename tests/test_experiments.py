"""Tests for the Monte Carlo experiment harness."""

import functools
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densityball import experiments, weights
from densityball.basis import HistogramModel
from densityball.estimators import Sample, projection_error_sq
from densityball.experiments import (
    cell_error_sq,
    cell_resampling_statistics,
    cell_resampling_variance,
    coverage_experiment,
    normalized_difference_experiment,
    order_statistic_rank,
)
from densityball.oracle import CosineTiltDensity, HistogramDensity, UniformDensity, sample_from
from densityball.weights import (
    CellWeightDrawer,
    WeightKind,
    make_scheme,
    replication_rng,
)

from reference import resampling_statistics, resampling_variance, sample_weights_batch


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
    draws = sample_weights_batch(scheme, n_draws, _replay_weights_rng(seed))
    stats = np.sort(resampling_statistics(sample, model, scheme, draws))
    for alpha, covered in table:
        threshold = stats[order_statistic_rank(alpha, n_draws) - 1]
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


@pytest.mark.parametrize("count", [0, -3])
def test_rank_needs_at_least_one_order_statistic(count):
    # a rank outside 1..count would make stats[rank - 1] read from the end
    with pytest.raises(ValueError, match="at least one order statistic"):
        order_statistic_rank(0.5, count)


@pytest.mark.parametrize("count", [2.5, 10**400, math.inf, True])
def test_rank_count_is_a_whole_number(count):
    # 2.5 used to give rank 2 and 10**400 an OverflowError
    with pytest.raises(ValueError, match="count"):
        order_statistic_rank(0.5, count)


@pytest.mark.parametrize("experiment", ["coverage", "normalized-difference"])
@pytest.mark.parametrize("name,value", [("n_draws", 2.5), ("n_draws", 0), ("reps", 2.5), ("reps", math.nan)])
def test_experiment_counts_are_whole_numbers(experiment, name, value):
    # n_draws = 2.5 used to leak numpy's TypeError, reps = 2.5 Python's
    kwargs = dict(n=20, dim=4, n_draws=10, reps=3, seed=1)
    kwargs[name] = value
    with pytest.raises(ValueError, match="weight draw" if value == 0 else name):
        if experiment == "coverage":
            coverage_experiment(UniformDensity(), alphas=[0.5], **kwargs)
        else:
            normalized_difference_experiment(UniformDensity(), **kwargs)


def test_experiments_take_whole_float_counts():
    # dim = 4.0 used to leak numpy's TypeError from the cell counts
    whole = dict(n=20, dim=4, n_draws=10, reps=3, seed=1)
    floats = dict(n=20.0, dim=4.0, n_draws=10.0, reps=np.int64(3), seed=1)
    expected = normalized_difference_experiment(UniformDensity(), **whole)
    result = normalized_difference_experiment(UniformDensity(), **floats)
    np.testing.assert_array_equal(result.monte_carlo, expected.monte_carlo)
    np.testing.assert_array_equal(result.closed_form, expected.closed_form)
    assert coverage_experiment(UniformDensity(), alphas=[0.5], **floats) == coverage_experiment(
        UniformDensity(), alphas=[0.5], **whole
    )


@pytest.mark.parametrize(
    "experiment",
    [functools.partial(coverage_experiment, alphas=[0.5]), normalized_difference_experiment],
    ids=["coverage", "normalized-difference"],
)
def test_experiments_refuse_more_draws_than_a_replication_array_holds(experiment):
    # coverage keeps no (reps, n_draws) array, whose size numpy used to refuse; it would draw for ever
    assert experiments.MAX_DRAWS == (2**63 - 1) // 8
    with pytest.raises(ValueError, match=f"^at most {experiments.MAX_DRAWS} weight draws per replication"):
        experiment(UniformDensity(), n=20, dim=4, n_draws=experiments.MAX_DRAWS + 1, reps=1)


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
        cell_w = np.concatenate([sums[0] for _, sums in blocks])
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
    sums = np.concatenate([s[0] for _, s in blocks])
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


# (n, n_draws, reps, replications per block (draw group), draw rows per draw
# block) at dim 7, the shipped chunk of 2**17 weight entries, and cap of 2**10
# replications
BLOCK_CASES = {
    # blocks of 26, seven of them, then a short last one of 18
    "reps-not-a-multiple-of-the-block": (50, 100, 200, 26, 100),
    "reps-within-one-block": (50, 100, 5, 26, 100),
    # 1024 draws of 128 points, exactly 2**17 entries, in one draw block
    "one-replication-fills-the-chunk": (128, 1024, 3, 1, 1024),
    # draw blocks of 1310, 1310 and 380 rows of 100 points
    "one-replication-spans-blocks": (100, 3000, 6, 1, 1310),
    # draw blocks of 2048 rows of 64 points, exactly 2**17 entries each, then 4 rows
    "one-replication-fills-twice-the-chunk": (64, 4100, 3, 1, 2048),
    # blocks of 1024 and 476, each its own seeding run
    "replications-per-block-capped": (4, 2, 1500, weights.MAX_BLOCK_SAMPLES, 2),
    # the cell sums of 3 * 6000 draws fit the chunk, those of 4 * 6000 do not,
    # though the draws of 4 (5 points each) would; blocks of 3, 3 and 1
    "replications-per-block-capped-by-the-chunk": (5, 6000, 7, 3, 6000),
    # the points of 13 samples of 10,000, one draw each, fit the chunk, those
    # of 14 do not; blocks of 13 and 2
    "replications-per-block-capped-by-their-points": (10000, 1, 15, 13, 1),
    # blocks of 300 (300 * 4 * 109 <= 2**17 < 301 * 4 * 109): a seeding run is
    # the 3 of them within 2**10 replications, and the last block, of 6, starts the next
    "replications-cross-a-seeding-run": (109, 4, 906, 300, 4),
    # 1899 rows of 69 points: the first two blocks hold an odd count of
    # entries, so they are drawn by ``integers`` (the second from a buffered
    # half), and the short last one (430 rows) from raw words
    "odd-entries-per-block": (69, 4228, 3, 1, 1899),
}


@pytest.mark.parametrize("kind", ["efron", "rademacher"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_batched_replications_match_the_per_point_references_at_block_boundaries(kind, case):
    n, n_draws, reps, group, rows = BLOCK_CASES[case]
    dim, seed = 7, 23
    drawer = CellWeightDrawer(make_scheme(kind, n), dim, n_draws)
    assert (drawer.group, drawer.rows) == (group, rows)
    _assert_matches_per_point_replications(HistogramDensity([0.5, 1.5, 1.0]), n, dim, n_draws, reps, seed, kind)


@st.composite
def _statistic_streams(draw):
    # small integer statistics, so that some equal the error; ranks may repeat;
    # one row may span several blocks, several rows come in one block
    rows, n_draws = draw(st.integers(1, 3)), draw(st.integers(1, 60))
    stats = np.array(draw(st.lists(st.integers(0, 6), min_size=rows * n_draws, max_size=rows * n_draws)))
    errors = np.array(draw(st.lists(st.integers(0, 6), min_size=rows, max_size=rows)))
    ranks = np.array(draw(st.lists(st.integers(1, n_draws), min_size=1, max_size=8)))
    cuts = sorted(draw(st.sets(st.integers(1, n_draws - 1), max_size=6))) if rows == 1 and n_draws > 1 else []
    return stats.reshape(rows, n_draws).astype(float), errors.astype(float), ranks, cuts


@settings(max_examples=300, deadline=None)
@given(stream=_statistic_streams())
# every statistic equals the error, and the ranks repeat: nothing lies below it
@example(stream=(np.ones((1, 6)), np.ones(1), np.array([1, 1, 6, 3]), [2, 4]))
def test_counting_below_until_decided_gives_the_sorted_threshold_hits(stream):
    stats, errors, ranks, cuts = stream
    n_draws = stats.shape[1]
    taken = []

    def blocks():
        for block in np.split(stats, cuts, axis=1):
            taken.append(block.shape[1])
            yield block

    below = experiments._count_below(blocks(), errors, sorted(set((ranks - 1).tolist())), n_draws)
    expected = errors[:, None] <= np.sort(stats, axis=1)[:, ranks - 1]
    np.testing.assert_array_equal(below[:, None] <= ranks - 1, expected)
    # a block is taken only while some hit is open after the blocks before it
    for end in np.cumsum(taken)[:-1]:
        b = int(np.count_nonzero(stats[0, :end] < errors[0]))
        assert any(b <= t < b + n_draws - end for t in ranks - 1)


def test_a_decided_replication_draws_no_further_blocks(monkeypatch):
    # the benchmark's coverage op: README configuration and alpha grid, 12
    # replications, each drawn in blocks of one replication; the mean of
    # simulate-pw needs every draw
    n, dim, n_draws, reps, seed = 100, 50, 10_000, 12, 1
    alphas = [round(0.5 + 0.05 * i, 2) for i in range(10)]
    drawn = []

    class Drawer(CellWeightDrawer):
        def _draw(self, rngs, high, count):
            drawn.append(len(rngs))
            return super()._draw(rngs, high, count)

    monkeypatch.setattr(experiments, "CellWeightDrawer", Drawer)
    drawer = CellWeightDrawer(make_scheme("efron", n), dim, n_draws)
    every_block = reps * -(-n_draws // drawer.rows)
    assert drawer.group == 1
    table = coverage_experiment(UniformDensity(), n, dim, n_draws, reps, alphas, seed=seed)
    assert len(drawn) < every_block and set(drawn) == {1}
    replays = _per_point_replications(UniformDensity(), n, dim, n_draws, reps, seed, "efron")
    ranks = np.array([order_statistic_rank(a, n_draws) for a in alphas])
    hits = sum(error <= np.sort(stats)[ranks - 1] for error, stats, _ in replays)
    assert table == [(a, float(h / reps)) for a, h in zip(alphas, hits)]
    drawn.clear()
    normalized_difference_experiment(UniformDensity(), n, dim, n_draws, reps, seed=seed)
    assert len(drawn) == every_block


ALPHAS = [round(0.05 * i, 2) for i in range(1, 20)]


def _counting_drawers(monkeypatch):
    # one drawer per thread: counting them counts the threads an experiment ran on
    made = []

    class Drawer(CellWeightDrawer):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(threading.current_thread())

    monkeypatch.setattr(experiments, "CellWeightDrawer", Drawer)
    return made


def _run_with_cpus(monkeypatch, cpus, oracle, n, dim, n_draws, reps, seed, kind):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    made = _counting_drawers(monkeypatch)
    table = coverage_experiment(oracle, n, dim, n_draws, reps, ALPHAS, seed=seed, kind=kind)
    threads = len(made)
    assert len(set(made)) == threads
    made.clear()
    result = normalized_difference_experiment(oracle, n, dim, n_draws, reps, seed=seed, kind=kind)
    assert len(made) == len(set(made)) == threads
    return threads, table, result


def _assert_identical(a, b):
    assert a[1] == b[1]
    for name in ("monte_carlo", "closed_form"):
        assert getattr(a[2], name).tobytes() == getattr(b[2], name).tobytes()


# the BLOCK_CASES whose replications each fill a draw group (group == 1)
THREADED_CASES = sorted(case for case, shape in BLOCK_CASES.items() if shape[3] == 1)


@pytest.mark.parametrize("kind", ["efron", "rademacher"])
@pytest.mark.parametrize("case", THREADED_CASES)
def test_threaded_replications_are_bit_identical_for_any_cpu_count(monkeypatch, kind, case):
    n, n_draws = BLOCK_CASES[case][:2]
    reps = 3  # three blocks of one replication
    args = (HistogramDensity([0.5, 1.5, 1.0]), n, 7, n_draws, reps, 23, kind)
    serial = _run_with_cpus(monkeypatch, 1, *args)
    assert serial[0] == 1
    shipped = _run_with_cpus(monkeypatch, 8, *args)
    assert shipped[0] == experiments._MAX_THREADS == 2
    _assert_identical(shipped, serial)
    monkeypatch.setattr(experiments, "_MAX_THREADS", 8)  # lift the cap to run more threads
    for cpus in (2, 3, 8):  # 8: more threads than blocks, so one per block
        threaded = _run_with_cpus(monkeypatch, cpus, *args)
        assert threaded[0] == min(cpus, 3)
        _assert_identical(threaded, serial)


def test_replications_with_cell_sums_that_fill_the_chunk_take_the_threaded_path(monkeypatch):
    # dim > n: each replication is its own draw group because its per-cell
    # sums fill the chunk, though its draws (10,000 entries) do not
    n, dim, n_draws = 10, 100, 1000
    drawer = CellWeightDrawer(make_scheme("efron", n), dim, n_draws)
    assert drawer.group == 1
    assert 2 * n * n_draws < weights.DRAW_CHUNK_ENTRIES
    args = (CosineTiltDensity(0.4, 2), n, dim, n_draws, 5, 3, "efron")
    serial = _run_with_cpus(monkeypatch, 1, *args)
    threaded = _run_with_cpus(monkeypatch, 2, *args)
    assert threaded[0] == 2
    _assert_identical(threaded, serial)


def test_replications_with_small_draws_stay_on_the_calling_thread(monkeypatch):
    # the simulate-pw shape: 26 replications share a draw group, so every
    # integers call draws 5,000 entries and the GIL hand-offs would cost more
    n, n_draws = 50, 100
    assert CellWeightDrawer(make_scheme("efron", n), 10, n_draws).group == 26
    threads, _, _ = _run_with_cpus(monkeypatch, 4, UniformDensity(), n, 10, n_draws, 400, 9, "efron")
    assert threads == 1


def test_threaded_replications_under_rapid_thread_switches(monkeypatch):
    # 8 threads whatever the CPU count, switching every microsecond, and
    # seeding runs of 4 blocks, so that the threads take 5 runs' first blocks
    args = (CosineTiltDensity(0.4, 2), 10, 7, 14000, 17, 5, "efron")
    assert CellWeightDrawer(make_scheme("efron", 10), 7, 14000).group == 1
    serial = _run_with_cpus(monkeypatch, 1, *args)
    monkeypatch.setattr(experiments, "_MAX_THREADS", 8)
    monkeypatch.setattr(experiments, "MAX_BLOCK_SAMPLES", 4)
    seed_words, runs = experiments.replication_seed_words, []

    def counting(seed, indices):
        runs.append(list(indices))
        return seed_words(seed, indices)

    monkeypatch.setattr(experiments, "replication_seed_words", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _run_with_cpus(monkeypatch, 8, *args)
    finally:
        sys.setswitchinterval(interval)
    assert threaded[0] == 8
    _assert_identical(threaded, serial)
    # each run seeded once per experiment, in order
    assert runs == 2 * [list(range(first, min(first + 4, 17))) for first in range(0, 17, 4)]


CALLER = "experiment-caller"


class _FailingOracle(UniformDensity):
    """Raises ``error`` on its ``fail_at``-th sample or the first after it made on an allowed thread."""

    def __init__(self, error, fail_at, caller_only):
        self.error, self.fail_at, self.caller_only = error, fail_at, caller_only
        self.calls, self.failed_at = 0, None
        self.lock = threading.Lock()

    def sample_points(self, n, rng):
        with self.lock:
            self.calls += 1
            allowed = not self.caller_only or threading.current_thread().name == CALLER
            if self.failed_at is None and self.calls >= self.fail_at and allowed:
                self.failed_at = self.calls
                raise self.error
        return super().sample_points(n, rng)


def _run_in_a_thread(fn):
    # the experiment's caller is this thread; a hang fails the join's timeout
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, name=CALLER)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return outcome


@pytest.mark.parametrize(
    "experiment",
    [functools.partial(coverage_experiment, alphas=ALPHAS), normalized_difference_experiment],
    ids=["coverage", "normalized-difference"],
)
@pytest.mark.parametrize("error", [ValueError("sample 3 is bad"), KeyboardInterrupt()])
def test_a_failing_replication_stops_every_thread_and_raises_its_error(monkeypatch, experiment, error):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(experiments, "_MAX_THREADS", 3)
    made = _counting_drawers(monkeypatch)
    # an interrupt comes to the calling thread, any other error to whichever thread samples
    oracle = _FailingOracle(error, fail_at=3, caller_only=isinstance(error, KeyboardInterrupt))
    reps = 200
    before = threading.active_count()
    outcome = _run_in_a_thread(lambda: experiment(oracle, n=10, dim=7, n_draws=14000, reps=reps, seed=5))
    assert outcome.get("error") is error
    assert len(made) == 3
    # each other thread finishes the block under way, and at most one it took as the error came
    assert oracle.calls <= oracle.failed_at + 2 * len(made) < reps
    assert threading.active_count() == before
