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
# Samples per block at most: each holds a generator of about 1 KB while the
# block is drawn, and past a few hundred samples the per-block overhead is
# already negligible next to creating their generators.
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


def sample_weights(scheme: WeightScheme, rng: np.random.Generator) -> np.ndarray:
    """One weight vector of length ``scheme.n``."""
    return sample_weights_batch(scheme, 1, rng)[0]


def sample_weights_batch(scheme: WeightScheme, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` independent weight vectors, shape ``(size, n)``, as floats.

    The case of :class:`CellWeightDrawer` with one sample and one cell per
    point.
    """
    n = scheme.n
    out = np.empty((size, n))
    points = np.arange(n)[None]
    for start, sums in CellWeightDrawer(scheme, n, size).blocks([rng], points, np.ones_like(points)):
        out[start : start + sums.shape[1]] = sums[0]
    return out


class CellWeightDrawer:
    """Per-cell sums of ``size`` weight vectors per sample, for several samples at once.

    Each sample has its own generator and ``scheme.n`` points, each in one of
    ``n_cells`` cells.  The draws are made in blocks of about
    ``DRAW_CHUNK_ENTRIES`` weight entries: a block holds all ``size`` draws of
    up to ``samples`` samples (at most ``MAX_BLOCK_SAMPLES``) when one
    sample's draws fit, and otherwise ``rows`` draws of a single sample.
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
        self.samples = min(max(DRAW_CHUNK_ENTRIES // (size * n), 1), MAX_BLOCK_SAMPLES)
        self.rows = min(max(DRAW_CHUNK_ENTRIES // n, 1), size)
        entries = self.samples * self.rows * n
        self._efron = scheme.kind is WeightKind.EFRON_MULTINOMIAL
        # Efron draws are ``take`` indices; Rademacher bits are ``bincount``
        # weights, which it would otherwise convert to floats per block.
        self._draws = np.empty(entries, dtype=np.intp if self._efron else float)
        self._bins = np.empty(entries, dtype=np.intp)

    def blocks(
        self, rngs: Sequence[np.random.Generator], cells: np.ndarray, counts: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start, sums)`` for draws ``start .. start + block - 1`` of every sample.

        Sample ``a`` draws with ``rngs[a]`` and has its points in the cells
        ``cells[a]`` (shape ``(len(rngs), n)``), ``counts[a, k]`` of them in
        cell ``k``.  ``sums[a, r, k]`` is the sum of ``W_i`` over the points
        of cell ``k`` in draw ``start + r`` of sample ``a``; the blocks cover
        draws ``0 .. size - 1`` in order.

        Efron weights are resample counts: a draw takes ``n`` indices
        uniformly from ``range(n)``, which makes the counts exactly
        multinomial(n; 1/n, ..., 1/n), and counts the cells of those indices.
        Rademacher weights are i.i.d. signs ``2 B - 1`` for fair bits ``B``,
        so their cell sum is twice the cell's bit sum minus its count.  Either
        way a generator draws ``rng.integers`` over a ``(block, n)`` array per
        block: chunked integer draws return the values of one call over
        ``(size, n)``, so the blocking does not move the stream.
        """
        n, n_cells, rows = self.scheme.n, self.n_cells, self.rows
        group = len(rngs)
        cells = np.asarray(cells, dtype=np.intp)
        if not 0 < group <= self.samples:
            raise ValueError(f"need 1 to {self.samples} samples per call")
        if cells.shape != (group, n) or cells.min() < 0 or cells.max() >= n_cells:
            raise ValueError(f"cells must hold {n} indices in [0, {n_cells}) per sample")
        efron = self._efron
        # Several samples share a block only when all ``size`` rows fit, so a
        # short last block has one sample, and the first ``block`` rows of
        # these row-major buffers are then the block's own layout.
        draws = self._draws[: group * rows * n].reshape(group, rows, n)
        bins = self._bins[: group * rows * n].reshape(group, rows, n)
        shift = (n_cells * np.arange(group * rows)).reshape(group, rows, 1)
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


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent reproducible stream for replication ``index``.

    Streams are keyed by ``(master_seed, index)`` so a Monte Carlo loop can
    be split, reordered, or parallelized without changing any draw.
    """
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(seq))  # default_rng(seq), without its argument checks
