"""Exchangeable resampling weights.

A weight scheme is a law for ``(W_1, ..., W_n)`` that is invariant under
permutations of the coordinates.  Two schemes ship:

* ``EFRON_MULTINOMIAL`` -- multinomial(n; 1/n, ..., 1/n), the classical
  bootstrap counts, drawn as they are defined: ``W_i`` is the number of times
  index ``i`` occurs among ``n`` indices resampled uniformly with
  replacement (integer draws and a ``bincount``, O(size * n) work);
* ``RADEMACHER_IID`` -- independent signs.

Draws are aggregated over groups of points as they are made, for several
samples at once (:class:`CellWeightDrawer`), which is all a histogram
statistic needs; per-point weights are the case of one group per point.

Each scheme carries the normalizer ``1 / Var(W_1 - mean(W))`` that makes the
reweighted empirical process mimic the centered one.  For both schemes that
variance is ``(n - 1) / n``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from ._checks import real, whole

# Weight entries (rows * n) drawn per block, and cell sums and points per group
# of samples, at most: the draw's integer temporaries stay O(DRAW_CHUNK_ENTRIES)
# whatever the batch size, and chunked integer draws return exactly the values
# of one call for the whole batch, so the chunking does not move the stream.
DRAW_CHUNK_ENTRIES = 2**17
# Samples per call of ``CellWeightDrawer.blocks``, and replications per seeding
# pass of the simulation studies, at most: each sample holds a generator of
# about 1 KB while the call draws (and 32 B of seed words until it is made),
# and past a few hundred samples the per-call overhead is already negligible
# next to their draws.
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

    def __post_init__(self):
        object.__setattr__(self, "kind", WeightKind(self.kind))
        object.__setattr__(self, "n", whole(self.n, "n", low=2))
        if self.n > np.iinfo(np.intp).max:  # the drawers size their arrays by n
            raise ValueError(f"resampling needs n within the array index range, got {self.n}")
        object.__setattr__(self, "normalizer", real(self.normalizer, "normalizer"))
        if self.normalizer <= 0:
            raise ValueError(f"normalizer must be positive, got {self.normalizer}")


def make_scheme(kind: WeightKind | str, n: int) -> WeightScheme:
    """Build a scheme; the normalizer is analytic, ``n / (n - 1)`` here."""
    n = whole(n, "n", low=2)  # n - 1.0 overflows for an int beyond the float range
    return WeightScheme(kind, n, n / (n - 1.0))


class CellWeightDrawer:
    """Per-cell sums of ``size`` weight vectors per sample, for a group of samples at once.

    Each sample has its own generator and ``scheme.n`` points, each in one of
    ``n_cells`` cells.  One call of :meth:`blocks` takes up to ``group``
    samples: as many as keep their draws, ``group * size * n`` weight
    entries, the cell sums of those draws, ``group * size * n_cells``
    values, and so their ``group * n`` points within
    ``DRAW_CHUNK_ENTRIES``, and at most ``MAX_BLOCK_SAMPLES``.  It draws them
    in blocks of ``rows`` draws of every sample, up to ``DRAW_CHUNK_ENTRIES``
    entries: all ``size`` draws when several samples fit (``group > 1``),
    else a slice of one sample's draws.  Blocks of ``2**17`` entries, not
    ``2**16``, halve the numpy calls per sample, each of which hands the GIL
    back and forth when two threads draw: a ``coverage`` op at the README
    configuration (12 replications, each in 8 blocks of 1310 rows) made
    260-300 voluntary context switches on two threads against 530-700 with
    blocks of ``2**16`` entries (``getrusage``, 2-vCPU host).
    Per sample only its raw words are drawn, multiplied into the block, and
    its cells are looked up; numpy's bounded-integer rule runs over the whole
    block (:meth:`_draw`), and one ``bincount`` aggregates it, with row
    ``(a, r)`` of the block shifted by ``(a * rows + r) * n_cells``.  Efron
    draws are binned in the draw buffer itself, Rademacher draws in a bin
    table; both are kept from one call of :meth:`blocks` to the next: fresh
    ones per call cost more in page faults than the draws themselves.  A
    drawer is not thread-safe; each thread needs its own.
    """

    def __init__(self, scheme: WeightScheme, n_cells: int, size: int):
        n_cells, size = whole(n_cells, "n_cells", low=1), whole(size, "size", low=1)
        n = scheme.n
        self.scheme, self.n_cells, self.size = scheme, n_cells, size
        # a group's draws, their cell sums and its points all stay within the chunk
        self.group = min(max(DRAW_CHUNK_ENTRIES // (size * max(n, n_cells)), 1), MAX_BLOCK_SAMPLES)
        self.rows = min(max(DRAW_CHUNK_ENTRIES // n, 1), size)
        entries = self.group * self.rows * n
        self._efron = scheme.kind is WeightKind.EFRON_MULTINOMIAL
        # int64, not intp, so that the draws can be viewed as uint64 products
        self._draws = np.empty(entries, dtype=np.int64)
        self._bins = None if self._efron else np.empty(entries, dtype=np.intp)
        self._shift = (n_cells * np.arange(self.group * self.rows)).reshape(self.group, self.rows, 1)

    def blocks(
        self, rngs: Sequence[np.random.Generator], cells: np.ndarray, counts: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start, sums)`` per block of draws of the samples, in draw order.

        Sample ``a`` draws with ``rngs[a]`` and has its points in the cells
        ``cells[a]`` (shape ``(len(rngs), n)``), ``counts[a, k]`` of them in
        cell ``k``.  ``sums[a, r, k]`` is the sum of ``W_i`` over the points
        of cell ``k`` in draw ``start + r`` of sample ``a``; the blocks cover
        draws ``0 .. size - 1`` in order, and each block is drawn when it is
        taken.  A caller that stops taking blocks skips the rest of the
        draws; every sample has its own stream, so no other sample's draws
        move.  Several samples share a block only when all their ``size``
        draws fit, so they come in one block.

        Efron weights are resample counts: a draw takes ``n`` indices
        uniformly from ``range(n)``, which makes the counts exactly
        multinomial(n; 1/n, ..., 1/n), and counts the cells of those indices.
        Rademacher weights are i.i.d. signs ``2 B - 1`` for fair bits ``B``,
        so their cell sum is twice the cell's count of ones minus its count.
        Either way a block's draws are the values of ``rng.integers(0, high,
        size=(block, n))``, ``high`` being ``n`` or 2: chunked integer draws
        return the values of one call over ``(size, n)``, so the blocking does
        not move the stream.
        """
        n, n_cells, rows = self.scheme.n, self.n_cells, self.rows
        cells = np.asarray(cells, dtype=np.intp)
        if not 0 < len(rngs) <= self.group:
            raise ValueError(f"need 1 to {self.group} samples per call")
        if cells.shape != (len(rngs), n) or cells.min() < 0 or cells.max() >= n_cells:
            raise ValueError(f"cells must hold {n} indices in [0, {n_cells}) per sample")
        group = len(rngs)
        # Several samples share a block only when all ``size`` rows fit, so a
        # short last block has one sample, and the first ``block`` rows of the
        # row-major shift and bin tables are then the block's own layout.
        shift = self._shift[:group]
        if not self._efron:
            # a point's bin is ``2 (cell + shift) + B``: the odd bins count the ones
            bins = self._bins[: group * rows * n].reshape(group, rows, n)
            np.add(cells[:, None, :], shift, out=bins)
            bins *= 2
        for start in range(0, self.size, rows):
            block = min(rows, self.size - start)
            drawn = self._draw(rngs, n if self._efron else 2, block * n).reshape(group, block, n)
            if self._efron:
                for a in range(group):
                    # each index becomes its cell in place: ``take`` reads entry ``i`` before it
                    # writes it, and ``mode="clip"`` (the indices never clip) keeps ``out`` unbuffered
                    np.take(cells[a], drawn[a], out=drawn[a], mode="clip")
                drawn += shift[:, :block]
                sums = np.bincount(drawn.ravel(), minlength=group * block * n_cells)
            else:
                drawn += bins[:, :block]
                ones = np.bincount(drawn.ravel(), minlength=2 * group * block * n_cells)[1::2]
                sums = 2.0 * ones.reshape(group, block, n_cells) - counts[:, None, :]
            yield start, sums.reshape(group, block, n_cells)

    def _draw(self, rngs, high: int, count: int) -> np.ndarray:
        """Row ``a`` holds ``rngs[a].integers(0, high, size=count)``; shape ``(len(rngs), count)``.

        For ``2 <= high < 2**32`` numpy maps each 32-bit output ``u`` of the
        bit generator by Lemire's multiply-and-reject rule
        (``buffered_bounded_lemire_uint32``; Lemire 2019, arXiv:1805.10941):
        with ``prod = u * high``, the value is ``prod >> 32``, and ``u`` is
        rejected, and replaced by the next output, when ``prod mod 2**32 <
        (2**32 - high) % high``.  ``PCG64`` serves the low half of each 64-bit
        word first, so on a little-endian host the ``uint32`` view of its
        ``random_raw`` words is its 32-bit output in order.  Here each
        generator draws ``count // 2`` raw words, multiplied straight into
        the draw buffer, and one pass per step applies the rest of the rule to
        the whole group.  A rejection shifts every later output, so a
        generator with a rejected output is rewound by its words
        (``advance``) and redrawn by ``integers``; rejections are rare (about
        2e-8 per output at ``high = 100``, none when ``high`` is a power of
        two).  The raw words are drawn only from a ``PCG64`` without a
        buffered half (which ``integers`` would serve first), for an even
        ``count`` and ``2 <= high < 2**32`` on a little-endian host; any
        other generator or call is drawn by ``integers`` itself.
        """
        group, half = len(rngs), count // 2
        out = self._draws[: group * count].reshape(group, count)
        redraw = range(group)
        if count % 2 == 0 and 2 <= high < 2**32 and sys.byteorder == "little":
            prod = out.view(np.uint64)
            redraw, raw = [], []
            for a, rng in enumerate(rngs):
                bits = rng.bit_generator
                if type(bits) is np.random.PCG64 and not bits.state["has_uint32"]:
                    np.multiply(bits.random_raw(half).view(np.uint32), high, out=prod[a], dtype=np.uint64)
                    raw.append(a)
                else:
                    redraw.append(a)
            threshold = (2**32 - high) % high
            if threshold:  # 0 when high is a power of two: nothing is rejected
                lowest = prod.view(np.uint32)[:, 0::2].min(axis=1).tolist()
                for a in raw:
                    if lowest[a] < threshold:
                        rngs[a].bit_generator.advance(-half)
                        redraw.append(a)
            np.right_shift(prod, 32, out=prod)
        for a in redraw:
            out[a] = rngs[a].integers(0, high, size=count)
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
    seed = whole(master_seed, "the seed", low=0)
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
    children of that sequence.  The class is registered as a
    ``numpy.random.bit_generator.ISpawnableSeedSequence`` on first use, not
    subclassed, so that importing this module does not itself load
    ``numpy.random`` (about 5 MB), which numpy 2 loads only when it is used.
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


def _seeded_rngs(master_seed: int, indices, words: np.ndarray) -> list[np.random.Generator]:
    """The streams of the replications ``indices`` from their rows of :func:`replication_seed_words`."""
    np.random.bit_generator.ISpawnableSeedSequence.register(_SeedWords)  # a no-op once registered
    seed = int(master_seed)
    return [np.random.Generator(np.random.PCG64(_SeedWords(row, seed, index))) for row, index in zip(words, indices)]


def replication_rngs(master_seed: int, indices) -> list[np.random.Generator]:
    """Independent reproducible streams for the replications ``indices``.

    Streams are keyed by ``(master_seed, index)`` so a Monte Carlo loop can
    be split, reordered, or parallelized without changing any draw.  Each is
    ``default_rng(SeedSequence(master_seed, spawn_key=(index,)))``, seeded
    from :func:`replication_seed_words`, and spawns as that generator does.
    """
    words = replication_seed_words(master_seed, indices)
    return _seeded_rngs(master_seed, np.asarray(indices).ravel().tolist(), words)


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """The stream of replication ``index``: one of :func:`replication_rngs`."""
    return replication_rngs(master_seed, [index])[0]
