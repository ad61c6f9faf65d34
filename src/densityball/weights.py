"""Exchangeable resampling weights.

A weight scheme is a law for ``(W_1, ..., W_n)`` that is invariant under
permutations of the coordinates.  Two schemes ship:

* ``EFRON_MULTINOMIAL`` -- multinomial(n; 1/n, ..., 1/n), the classical
  bootstrap counts, drawn as they are defined: ``W_i`` is the number of times
  index ``i`` occurs among ``n`` indices resampled uniformly with
  replacement (integer draws and a ``bincount``, O(size * n) work);
* ``RADEMACHER_IID`` -- independent signs, cheap to enumerate exactly.

Draws can be aggregated over groups of points as they are made, for several
samples at once (:class:`CellWeightDrawer`), which is all a histogram
statistic needs; per-point weights are the case of one group per point.

Each scheme carries the normalizer ``1 / Var(W_1 - mean(W))`` that makes the
reweighted empirical process mimic the centered one.  For both schemes that
variance is ``(n - 1) / n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

# Keeps exact enumeration affordable: multinomial support size is
# C(2n-1, n-1), i.e. 6435 at n = 8.
MAX_ENUMERATION_N = 8

# Weight entries (rows * n) drawn per chunk: the draw's integer temporaries
# stay O(DRAW_CHUNK_ENTRIES) whatever the batch size, and chunked integer draws
# return exactly the values of one call for the whole batch, so the chunking
# does not move the stream.
DRAW_CHUNK_ENTRIES = 2**16
# Samples per call of ``CellWeightDrawer.blocks`` at most: each holds a
# generator of about 1 KB while the call draws, and past a few hundred samples
# the per-call overhead is already negligible next to their draws.
MAX_BLOCK_SAMPLES = 2**10


class WeightKind(str, Enum):
    EFRON_MULTINOMIAL = "efron"
    RADEMACHER_IID = "rademacher"


@dataclass(frozen=True)
class WeightScheme:
    """An exchangeable weight law of a given size with its normalizer."""

    kind: WeightKind
    n: int
    normalizer: float


def make_scheme(kind: WeightKind | str, n: int) -> WeightScheme:
    """Build a scheme; the normalizer is analytic, ``n / (n - 1)`` here."""
    kind = WeightKind(kind)
    if n < 2:
        raise ValueError("resampling needs n >= 2")
    return WeightScheme(kind=kind, n=int(n), normalizer=n / (n - 1.0))


def sample_weights_batch(scheme: WeightScheme, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` independent weight vectors, shape ``(size, n)``, as floats.

    The case of :class:`CellWeightDrawer` with one sample and one cell per
    point.
    """
    n = scheme.n
    out = np.empty((size, n))
    points = np.arange(n)[None]
    for _, start, sums in CellWeightDrawer(scheme, n, size).blocks([rng], points, np.ones_like(points)):
        out[start : start + sums.shape[1]] = sums[0]
    return out


class CellWeightDrawer:
    """Per-cell sums of ``size`` weight vectors per sample, for several samples at once.

    Each sample has its own generator and ``scheme.n`` points, each in one of
    ``n_cells`` cells.  One call of :meth:`blocks` takes up to ``samples``
    samples: as many as keep the cell sums of all their draws,
    ``samples * size * n_cells`` values, and their ``samples * n`` points
    within ``DRAW_CHUNK_ENTRIES``, and at most ``MAX_BLOCK_SAMPLES``.  It
    draws them in blocks of about ``DRAW_CHUNK_ENTRIES`` weight entries: a
    block holds all ``size`` draws of a group of up to ``group`` samples when
    one sample's draws fit, and otherwise ``rows`` draws of a single sample.
    Only the integer draws are made per sample; one ``take`` and one
    ``bincount`` aggregate a whole block, with row ``(a, r)`` of the block
    shifted by ``(a * rows + r) * n_cells``.  The block buffers are kept from
    one call of :meth:`blocks` to the next: fresh ones per call cost more in
    page faults than the draws themselves.
    """

    def __init__(self, scheme: WeightScheme, n_cells: int, size: int):
        if size < 1:
            raise ValueError("need size >= 1")
        n = scheme.n
        self.scheme, self.n_cells, self.size = scheme, n_cells, size
        # a block's cell sums and its points both stay within the chunk
        self.samples = min(
            max(DRAW_CHUNK_ENTRIES // (size * n_cells), 1), max(DRAW_CHUNK_ENTRIES // n, 1), MAX_BLOCK_SAMPLES
        )
        self.group = min(max(DRAW_CHUNK_ENTRIES // (size * n), 1), self.samples)
        self.rows = min(max(DRAW_CHUNK_ENTRIES // n, 1), size)
        entries = self.group * self.rows * n
        self._efron = scheme.kind is WeightKind.EFRON_MULTINOMIAL
        # Efron draws are ``take`` indices; Rademacher bits are ``bincount``
        # weights, which it would otherwise convert to floats per block.
        self._draws = np.empty(entries, dtype=np.intp if self._efron else float)
        self._bins = np.empty(entries, dtype=np.intp)
        self._shift = (n_cells * np.arange(self.group * self.rows)).reshape(self.group, self.rows, 1)

    def blocks(
        self, rngs: Sequence[np.random.Generator], cells: np.ndarray, counts: np.ndarray
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(first, start, sums)``: draws ``start ..`` of samples ``first ..``.

        Sample ``a`` draws with ``rngs[a]`` and has its points in the cells
        ``cells[a]`` (shape ``(len(rngs), n)``), ``counts[a, k]`` of them in
        cell ``k``.  ``sums[a, r, k]`` is the sum of ``W_i`` over the points
        of cell ``k`` in draw ``start + r`` of sample ``first + a``; the
        blocks cover draws ``0 .. size - 1`` of each group of samples in
        order, group after group.

        Efron weights are resample counts: a draw takes ``n`` indices
        uniformly from ``range(n)``, which makes the counts exactly
        multinomial(n; 1/n, ..., 1/n), and counts the cells of those indices.
        Rademacher weights are i.i.d. signs ``2 B - 1`` for fair bits ``B``,
        so their cell sum is twice the cell's bit sum minus its count.  Either
        way a generator draws ``rng.integers`` over a ``(block, n)`` array per
        block: chunked integer draws return the values of one call over
        ``(size, n)``, so the blocking does not move the stream.
        """
        n, n_cells = self.scheme.n, self.n_cells
        cells = np.asarray(cells, dtype=np.intp)
        if not 0 < len(rngs) <= self.samples:
            raise ValueError(f"need 1 to {self.samples} samples per call")
        if cells.shape != (len(rngs), n) or cells.min() < 0 or cells.max() >= n_cells:
            raise ValueError(f"cells must hold {n} indices in [0, {n_cells}) per sample")
        for first in range(0, len(rngs), self.group):
            last = first + self.group
            for start, sums in self._group_blocks(rngs[first:last], cells[first:last], counts[first:last]):
                yield first, start, sums

    def _group_blocks(self, rngs, cells, counts):
        n, n_cells, rows = self.scheme.n, self.n_cells, self.rows
        group = len(rngs)
        efron = self._efron
        # Several samples share a block only when all ``size`` rows fit, so a
        # short last block has one sample, and the first ``block`` rows of
        # these row-major buffers are then the block's own layout.
        draws = self._draws[: group * rows * n].reshape(group, rows, n)
        bins = self._bins[: group * rows * n].reshape(group, rows, n)
        shift = self._shift[:group]
        if efron:
            # Sample ``a`` draws its indices from ``[a n, (a + 1) n)``: a
            # shifted range gives the values of ``[0, n)`` plus the shift,
            # from the same bits, so they index the flattened ``cells``.
            lows, high, flat_cells = range(0, group * n, n), n, cells.ravel()
        else:
            lows, high = [0] * group, 2
            np.add(cells[:, None, :], shift, out=bins)
        for start in range(0, self.size, rows):
            block = min(rows, self.size - start)
            if group == 1:  # a lone sample's draws are used as drawn, without a copy
                drawn = rngs[0].integers(0, high, size=(1, block, n))
            else:
                drawn = draws
                for a, rng in enumerate(rngs):
                    draws[a] = rng.integers(lows[a], lows[a] + high, size=(rows, n))
            chunk = bins[:, :block]
            if efron:
                # ``mode="clip"`` lets ``take`` write into ``chunk`` without
                # buffering; the indices are in range, so it never clips.
                np.take(flat_cells, drawn, out=chunk, mode="clip")
                chunk += shift[:, :block]
                sums = np.bincount(chunk.ravel(), minlength=group * block * n_cells)
            else:
                bits = np.bincount(chunk.ravel(), weights=drawn.ravel(), minlength=group * block * n_cells)
                sums = 2.0 * bits.reshape(group, block, n_cells) - counts[:, None, :]
            yield start, sums.reshape(group, block, n_cells)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_weights(scheme: WeightScheme) -> list[tuple[np.ndarray, float]]:
    """Full support with probabilities; only for small ``n``.

    Probabilities are exact up to float rounding and sum to 1 within 1e-12.
    """
    n = scheme.n
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"enumeration supported only for n <= {MAX_ENUMERATION_N}")
    out: list[tuple[np.ndarray, float]] = []
    if scheme.kind is WeightKind.EFRON_MULTINOMIAL:
        n_fact = math.factorial(n)
        scale = float(n) ** n
        for combo in _compositions(n, n):
            denom = 1
            for c in combo:
                denom *= math.factorial(c)
            prob = n_fact / (denom * scale)
            out.append((np.array(combo, dtype=float), prob))
    else:
        prob = 0.5**n
        for mask in range(2**n):
            signs = np.array([1.0 if mask >> i & 1 else -1.0 for i in range(n)])
            out.append((signs, prob))
    return out


# numpy's ``SeedSequence`` hash (``numpy/random/bit_generator.pyx``), which
# numpy keeps stream-stable: 32-bit words, a pool of 4 words, and the
# constants of its two running hashes and of its mixing step.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int):
    """``SeedSequence``'s ``hashmix`` of ``value``; returns it with the next hash constant."""
    next_const = const * _MULT_A & _MASK32
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> 16, next_const


def _mix(x, y):
    # a uint64 array wraps on the subtraction, which leaves its low 32 bits exact
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def replication_seed_words(master_seed: int, indices) -> np.ndarray:
    """State words of replication ``j``'s stream for each ``j`` in ``indices``.

    Row ``r`` equals ``SeedSequence(master_seed, spawn_key=(indices[r],))
    .generate_state(4, np.uint64)``, the words ``PCG64`` takes from a seed
    sequence, for all the indices in one pass.  The entropy is the seed's
    32-bit words, zero-padded to the pool size, then the index word: the pool
    after the seed's words is the same for every index and stays in Python
    ints (a numpy scalar would warn on the products that overflow), and the
    steps that take the index run over all of them at once in uint64 lanes.
    An index is one word of the spawn key, so it must lie in ``[0, 2**32)``.
    """
    seed = int(master_seed)
    if seed < 0:
        raise ValueError("the seed must be nonnegative")
    index = np.asarray(indices).ravel()
    if index.size and (index.dtype.kind not in "iu" or index.min() < 0 or index.max() > _MASK32):
        raise ValueError("replication indices must lie in [0, 2**32)")
    entropy = [seed >> 32 * k & _MASK32 for k in range(max(-(-seed.bit_length() // 32), 1))]
    entropy += [0] * (_POOL_SIZE - len(entropy))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in [*entropy[_POOL_SIZE:], index.astype(np.uint64)]:
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    # generate_state: 8 32-bit words cycling through the pool, paired little-endian
    words = np.empty((index.size, 4), dtype=np.uint64)
    const, halves = _INIT_B, []
    for k in range(2 * words.shape[1]):
        value = pool[k % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        halves.append(value ^ value >> 16)
    for k in range(words.shape[1]):
        words[:, k] = halves[2 * k] | halves[2 * k + 1] << 32
    return words


class _SeedWords:
    """State words computed ahead, handed to ``PCG64`` as its seed sequence.

    ``spawn`` builds ``SeedSequence(seed, spawn_key=(index,))`` from the
    words' ``key`` on first use and spawns from it, so a stream spawns the
    children of that sequence.  The
    class is registered as a ``numpy.random.bit_generator
    .ISpawnableSeedSequence`` on first use, not subclassed, so that importing
    this module does not itself load ``numpy.random`` (about 5 MB), which
    numpy 2 loads only when it is first used.
    """

    __slots__ = ("words", "key", "_sequence")

    def __init__(self, words: np.ndarray, seed: int, index: int):
        self.words, self.key, self._sequence = words, (seed, index), None

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (self.words.size, np.uint64):
            raise ValueError(f"holds {self.words.size} uint64 words only")
        return self.words

    def spawn(self, n_children: int) -> list[np.random.SeedSequence]:
        if self._sequence is None:
            seed, index = self.key
            self._sequence = np.random.SeedSequence(seed, spawn_key=(index,))
        return self._sequence.spawn(n_children)


def replication_rngs(master_seed: int, indices) -> list[np.random.Generator]:
    """Independent reproducible streams for the replications ``indices``.

    Streams are keyed by ``(master_seed, index)`` so a Monte Carlo loop can
    be split, reordered, or parallelized without changing any draw.  Each is
    ``default_rng(SeedSequence(master_seed, spawn_key=(index,)))``, seeded
    from :func:`replication_seed_words`, and spawns as that generator does.
    """
    words = replication_seed_words(master_seed, indices)
    np.random.bit_generator.ISpawnableSeedSequence.register(_SeedWords)  # a no-op once registered
    seed = int(master_seed)
    return [
        np.random.Generator(np.random.PCG64(_SeedWords(row, seed, index)))
        for row, index in zip(words, np.asarray(indices).ravel().tolist())
    ]


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """The stream of replication ``index``: one of :func:`replication_rngs`."""
    return replication_rngs(master_seed, [index])[0]
