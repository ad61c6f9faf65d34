"""Tests for the exchangeable weight schemes."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densityball.weights import (
    CellWeightDrawer,
    WeightKind,
    make_scheme,
    replication_rng,
    replication_rngs,
    replication_seed_words,
)

from reference import enumerate_weights, sample_weights, sample_weights_batch


def test_normalizer_values():
    assert make_scheme("efron", 10).normalizer == pytest.approx(10.0 / 9.0, rel=1e-15)
    assert make_scheme("rademacher", 2).normalizer == pytest.approx(2.0, rel=1e-15)
    assert make_scheme("efron", 2).normalizer == pytest.approx(2.0, rel=1e-15)


def test_make_scheme_rejects_tiny_n():
    with pytest.raises(ValueError):
        make_scheme("efron", 1)


@pytest.mark.parametrize("n", [2.5, float("nan"), float("inf")])
def test_make_scheme_rejects_a_size_that_is_not_an_integer(n):
    # int(2.5) would give n = 2 with the normalizer of n = 2.5
    with pytest.raises(ValueError, match="^n must be a finite whole number"):
        make_scheme("efron", n)


@pytest.mark.parametrize(
    "n,match", [(10**400, "^n must be a finite whole number"), (2**63, "array index range")], ids=["10**400", "2**63"]
)
def test_make_scheme_refuses_a_size_beyond_the_array_index_range(n, match):
    # 10**400 used to overflow in n / (n - 1.0); it is beyond the float range too
    with pytest.raises(ValueError, match=match):
        make_scheme("efron", n)


def test_normalizers_are_n_over_n_minus_one_bit_for_bit():
    sizes = range(2, 10**4 + 1)
    assert [make_scheme("rademacher", n).normalizer for n in sizes] == [n / (n - 1.0) for n in sizes]


def test_efron_normalizer_against_monte_carlo():
    # Var(W_1 - mean W) = Var(W_1) for multinomial weights; 1e6 draws
    scheme = make_scheme("efron", 10)
    rng = np.random.default_rng(123)
    draws = sample_weights_batch(scheme, 1_000_000, rng)
    w1 = draws[:, 0]
    var = w1.var(ddof=1)
    # 3-sigma band for the sample variance of a bounded variable
    fourth = np.mean((w1 - w1.mean()) ** 4)
    se = np.sqrt(max(fourth - var**2, 0.0) / w1.size)
    assert abs(var - 1.0 / scheme.normalizer) <= 3.0 * se


def test_rademacher_normalizer_by_exhaustive_enumeration():
    # all four sign vectors at n = 2
    scheme = make_scheme("rademacher", 2)
    values = []
    for signs in itertools.product((-1.0, 1.0), repeat=2):
        w = np.array(signs)
        values.append((w[0] - w.mean()) ** 2)
    assert np.mean(values) == pytest.approx(1.0 / scheme.normalizer, rel=1e-15)


def test_sample_weights_shapes_and_support():
    rng = np.random.default_rng(0)
    efron = make_scheme("efron", 5)
    w = sample_weights(efron, rng)
    assert w.shape == (5,)
    assert w.sum() == pytest.approx(5.0)
    assert np.all(w >= 0) and np.all(w == np.round(w))

    rad = make_scheme("rademacher", 3)
    draws = sample_weights_batch(rad, 100, rng)
    assert draws.shape == (100, 3)
    assert set(np.unique(draws)) <= {-1.0, 1.0}


def test_efron_first_weight_mean():
    scheme = make_scheme("efron", 12)
    rng = np.random.default_rng(42)
    draws = sample_weights_batch(scheme, 100_000, rng)
    w1 = draws[:, 0]
    se = w1.std(ddof=1) / np.sqrt(w1.size)
    assert abs(w1.mean() - 1.0) <= 3.0 * se


def test_enumeration_small_cases():
    rad = enumerate_weights(make_scheme("rademacher", 2))
    assert len(rad) == 4
    assert all(p == pytest.approx(0.25) for _, p in rad)

    efron = enumerate_weights(make_scheme("efron", 2))
    table = {tuple(int(v) for v in w): p for w, p in efron}
    assert table == {
        (2, 0): pytest.approx(0.25),
        (0, 2): pytest.approx(0.25),
        (1, 1): pytest.approx(0.5),
    }


@pytest.mark.parametrize("kind", ["efron", "rademacher"])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_enumeration_probabilities_and_centered_moments(kind, n):
    scheme = make_scheme(kind, n)
    support = enumerate_weights(scheme)
    probs = np.array([p for _, p in support])
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
    centered_first = [p * (w[0] - w.mean()) for w, p in support]
    centered_sq = [p * (w[0] - w.mean()) ** 2 for w, p in support]
    assert math.fsum(centered_first) == pytest.approx(0.0, abs=1e-10)
    assert scheme.normalizer * math.fsum(centered_sq) == pytest.approx(
        1.0, abs=1e-10
    )


@pytest.mark.parametrize("kind", ["efron", "rademacher"])
def test_enumerated_support_is_exchangeable(kind):
    # permuting coordinates permutes the support and preserves probabilities
    scheme = make_scheme(kind, 3)
    table = {tuple(w.tolist()): p for w, p in enumerate_weights(scheme)}
    for perm in itertools.permutations(range(3)):
        for vec, prob in table.items():
            permuted = tuple(vec[i] for i in perm)
            assert table[permuted] == pytest.approx(prob, rel=1e-12)


def test_enumeration_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_weights(make_scheme("efron", 9))


def test_replication_streams_are_keyed_and_reproducible():
    a = replication_rng(7, 3).random(5)
    b = replication_rng(7, 3).random(5)
    c = replication_rng(7, 4).random(5)
    d = replication_rng(8, 3).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# 1 to 5 seed words (2**128 + 3 has more than the pool's 4), and indices at
# the draw-group edge of the README simulate-pw config (13), at the block cap
# (1024) and at the last 32-bit key
SEEDS = [0, 4, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 3]
INDICES = [0, 12, 13, 1023, 1024, 2**32 - 1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", SEEDS)
def test_vectorised_seeding_is_numpys_seed_sequence(seed):
    words = replication_seed_words(seed, INDICES)
    rngs = replication_rngs(seed, INDICES)
    for j, row, rng in zip(INDICES, words, rngs):
        sequence = np.random.SeedSequence(seed, spawn_key=(j,))
        np.testing.assert_array_equal(row, sequence.generate_state(4, np.uint64))
        first = np.random.default_rng(sequence).integers(0, 2**63, size=8)
        np.testing.assert_array_equal(rng.integers(0, 2**63, size=8), first)
        np.testing.assert_array_equal(replication_rng(seed, j).integers(0, 2**63, size=8), first)


def test_replication_streams_spawn_as_their_seed_sequence_does():
    reference = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(13,)))
    rng = replication_rng(9, 13)
    for _ in range(2):  # a second spawn gives the next children, not the same ones
        for child, expected in zip(rng.spawn(2), reference.spawn(2)):
            np.testing.assert_array_equal(child.integers(0, 2**63, size=4), expected.integers(0, 2**63, size=4))
    child, expected = rng.bit_generator.spawn(1)[0], reference.bit_generator.spawn(1)[0]
    assert child.random_raw() == expected.random_raw()


def test_replication_indices_are_one_key_word():
    with pytest.raises(ValueError):
        replication_rng(4, 2**32)
    with pytest.raises(ValueError):
        replication_seed_words(4, [0, 2**32])
    with pytest.raises(ValueError):
        replication_rng(4, 2**64)
    with pytest.raises(ValueError):
        replication_rng(4, 0.5)
    with pytest.raises(ValueError):
        replication_rng(4, -1)
    with pytest.raises(ValueError):
        replication_rng(-1, 0)


def test_weight_kind_round_trip():
    assert WeightKind("efron") is WeightKind.EFRON_MULTINOMIAL
    assert make_scheme(WeightKind.RADEMACHER_IID, 4).kind is WeightKind.RADEMACHER_IID


def test_efron_draws_follow_the_exact_multinomial_law():
    # every one of the C(7, 3) = 35 compositions of 4 within 4 standard errors
    n, draws = 4, 200_000
    scheme = make_scheme("efron", n)
    w = sample_weights_batch(scheme, draws, np.random.default_rng(2024))
    assert w.dtype == np.float64
    assert np.all(w.sum(axis=1) == n)
    assert np.all(w >= 0) and np.all(w == np.round(w))
    support = enumerate_weights(scheme)
    assert len(support) == 35
    codes = w.astype(np.int64) @ (n + 1) ** np.arange(n)
    freq = np.bincount(codes, minlength=(n + 1) ** n) / draws
    for vec, prob in support:
        code = int(vec.astype(np.int64) @ (n + 1) ** np.arange(n))
        se = np.sqrt(prob * (1.0 - prob) / draws)
        assert abs(freq[code] - prob) <= 4.0 * se, (vec, freq[code], prob)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["efron", "rademacher"]),
    n=st.integers(2, 60),
    size=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_weight_batches_have_the_scheme_support(kind, n, size, seed):
    scheme = make_scheme(kind, n)
    w = sample_weights_batch(scheme, size, np.random.default_rng(seed))
    assert w.shape == (size, n)
    assert w.dtype == np.float64
    if kind == "efron":
        assert np.all(w.sum(axis=1) == n)
        assert np.all(w >= 0)
    else:
        assert np.all((w == -1.0) | (w == 1.0))
    again = sample_weights_batch(scheme, size, np.random.default_rng(seed))
    np.testing.assert_array_equal(w, again)


def _drawer_for(count, group=1):
    # an Efron drawer whose draw buffer holds ``group`` rows of ``count`` entries
    drawer = CellWeightDrawer(make_scheme("efron", count), 1, group)
    assert drawer._draws.size >= group * count
    return drawer


def _assert_draws_as_integers(rngs, twins, high, count):
    drawer = _drawer_for(count, len(rngs))
    drawn = drawer._draw(rngs, high, count)
    assert drawn.shape == (len(rngs), count)
    for row, rng, twin in zip(drawn, rngs, twins):
        np.testing.assert_array_equal(row, twin.integers(0, high, size=count))
        # the streams go on alike: 32-bit draws (a buffered half would show) and raw words
        halves = [r.integers(0, 7, size=3, dtype=np.uint32) for r in (rng, twin)]
        np.testing.assert_array_equal(*halves)
        assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw()


def _twin_rngs(make, count):
    return [make(seed) for seed in range(count)], [make(seed) for seed in range(count)]


# 10**6 and 3 * 10**9 reject about one 32-bit output in 4,400 and in 3, so
# their long rows take the rewind; 2, 3, 50, 100 and 12345 almost never reject
HIGHS = [2, 3, 50, 100, 12345, 10**6, 3 * 10**9]


@pytest.mark.parametrize("high", HIGHS)
@pytest.mark.parametrize("count", [2, 5000, 5001, 65500])
def test_drawn_integers_are_numpys_bounded_integers(high, count):
    group = 3 if count <= 5001 else 1
    rngs, twins = _twin_rngs(np.random.default_rng, group)
    _assert_draws_as_integers(rngs, twins, high, count)


def _rejects(seed, high, count):
    # whether numpy's 32-bit rule rejects one of the first ``count`` outputs of default_rng(seed)
    lo = np.random.default_rng(seed).bit_generator.random_raw(count // 2).view(np.uint32).astype(np.uint64)
    return bool((lo * high & 0xFFFFFFFF < (2**32 - high) % high).any())


@pytest.mark.parametrize("high", [10**6, 3 * 10**9])
def test_a_rejected_output_rewinds_its_generator(high):
    rngs, twins = _twin_rngs(np.random.default_rng, 3)
    assert all(_rejects(seed, high, 20000) for seed in range(3))
    _assert_draws_as_integers(rngs, twins, high, 20000)


def test_a_buffered_half_is_served_first():
    # integers(0, 7, dtype=uint32) leaves the other half of a word buffered
    rngs, twins = _twin_rngs(np.random.default_rng, 2)
    for rng in (rngs[0], twins[0]):
        rng.integers(0, 7, dtype=np.uint32)
    assert rngs[0].bit_generator.state["has_uint32"]
    _assert_draws_as_integers(rngs, twins, 100, 1000)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_other_bit_generators_draw_as_integers(bit_generator):
    rngs, twins = _twin_rngs(lambda seed: np.random.Generator(bit_generator(seed)), 2)
    _assert_draws_as_integers(rngs, twins, 100, 1000)


@pytest.mark.parametrize("high", [2**32 - 1, 2**32, 2**32 + 1, 2**40])
def test_bounds_at_and_beyond_32_bits_draw_as_integers(high):
    # 2**32 - 1 is the largest bound of the 32-bit rule; the others take 64-bit outputs
    rngs, twins = _twin_rngs(np.random.default_rng, 2)
    _assert_draws_as_integers(rngs, twins, high, 1000)


def test_a_mixed_group_draws_as_integers():
    # one group: a PCG64 kept as drawn, one with a buffered half, an MT19937,
    # and a PCG64 that rejects an output, so only the last is rewound
    def make(seed):
        return np.random.Generator(np.random.MT19937(seed)) if seed == 2 else np.random.default_rng(seed)

    high, count = 10**6, 2000
    assert not _rejects(0, high, count) and _rejects(3, high, count)
    rngs, twins = _twin_rngs(make, 4)
    for rng in (rngs[1], twins[1]):
        rng.integers(0, 7, dtype=np.uint32)
    _assert_draws_as_integers(rngs, twins, high, count)


@pytest.mark.parametrize("k", [1, 2, 3, 1000])
def test_advance_back_over_raw_words_restores_the_state(k):
    bits = np.random.PCG64(11)
    for _ in range(2):  # a fresh generator, then one that drew raw words
        before = bits.state
        bits.random_raw(k)
        bits.advance(-k)
        assert bits.state == before
        bits.random_raw(5)


@pytest.mark.parametrize(
    "n_cells,size,name",
    [(4, 2.5, "size"), (4, True, "size"), (4, math.nan, "size"), (2.5, 4, "n_cells"), (10**400, 4, "n_cells"),
     (0, 5, "n_cells"), (4, 0, "size")],
)
def test_drawer_sizes_are_whole_numbers(n_cells, size, name):
    # 2.5 used to leak numpy's TypeError and n_cells = 0 a ZeroDivisionError
    with pytest.raises(ValueError, match=name):
        CellWeightDrawer(make_scheme("efron", 10), n_cells, size)


def test_drawer_takes_whole_floats_and_numpy_integers():
    drawer = CellWeightDrawer(make_scheme("efron", 10), np.int64(4), 3.0)
    assert (drawer.n_cells, drawer.size) == (4, 3) and type(drawer.size) is int


@pytest.mark.parametrize(
    "n,n_cells,size,reps", [(100, 50, 10_000, 1), (50, 10, 100, 13)], ids=["coverage", "simulate-pw"]
)
def test_an_efron_drawer_bins_its_draws_in_its_draw_buffer(n, n_cells, size, reps):
    # the README shapes of the two studies; a second buffer as large as the draw buffer overshoots the margin
    rngs = replication_rngs(0, range(reps))
    cells = np.random.default_rng(1).integers(0, n_cells, size=(reps, n))
    counts = np.stack([np.bincount(row, minlength=n_cells) for row in cells])
    tracemalloc.start()
    try:
        drawer = CellWeightDrawer(make_scheme("efron", n), n_cells, size)
        for _, group in drawer.blocks(rngs, cells, counts):
            for _ in group:
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reps <= drawer.samples
    raw_words = 8 * (drawer.rows * n // 2)  # one replication's, per block
    block_sums = 8 * drawer.group * drawer.rows * n_cells
    assert peak < 1.25 * (drawer._draws.nbytes + raw_words + block_sums)


@pytest.mark.parametrize(
    "seed",
    [1.5, True, np.bool_(False), math.inf, 10**400, "4"],
    ids=["1.5", "True", "np-False", "inf", "10**400", "str"],
)
def test_replication_seed_is_a_whole_number(seed):
    # 1.5 used to give the stream of seed 1, and True that of seed 1
    with pytest.raises(ValueError, match="seed"):
        replication_rng(seed, 0)


def test_replication_seed_takes_whole_floats_and_numpy_integers():
    expected = replication_rng(4, 3).random(3)
    for seed in (4.0, np.int64(4), np.uint32(4)):
        np.testing.assert_array_equal(replication_rng(seed, 3).random(3), expected)
