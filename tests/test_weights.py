"""Tests for the exchangeable weight schemes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densityball.weights import (
    WeightKind,
    enumerate_weights,
    make_scheme,
    replication_rng,
    replication_rngs,
    replication_seed_words,
    sample_weights_batch,
)

from reference import sample_weights


def test_normalizer_values():
    assert make_scheme("efron", 10).normalizer == pytest.approx(10.0 / 9.0, rel=1e-15)
    assert make_scheme("rademacher", 2).normalizer == pytest.approx(2.0, rel=1e-15)
    assert make_scheme("efron", 2).normalizer == pytest.approx(2.0, rel=1e-15)


def test_make_scheme_rejects_tiny_n():
    with pytest.raises(ValueError):
        make_scheme("efron", 1)


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
