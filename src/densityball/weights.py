"""Exchangeable resampling weights.

A weight scheme is a law for ``(W_1, ..., W_n)`` that is invariant under
permutations of the coordinates.  Two schemes ship:

* ``EFRON_MULTINOMIAL`` -- multinomial(n; 1/n, ..., 1/n), the classical
  bootstrap counts, drawn as they are defined: ``W_i`` is the number of times
  index ``i`` occurs among ``n`` indices resampled uniformly with
  replacement (integer draws and a ``bincount``, O(size * n) work);
* ``RADEMACHER_IID`` -- independent signs, cheap to enumerate exactly.

Draws can be aggregated over groups of points as they are made
(:func:`sample_cell_weights`), which is all a histogram statistic needs;
per-point weights are the case of one group per point.

Each scheme carries the normalizer ``1 / Var(W_1 - mean(W))`` that makes the
reweighted empirical process mimic the centered one.  For both schemes that
variance is ``(n - 1) / n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

# Keeps exact enumeration affordable: multinomial support size is
# C(2n-1, n-1), i.e. 6435 at n = 8.
MAX_ENUMERATION_N = 8

# Weight entries (rows * n) drawn per chunk: the draw's integer temporaries
# stay O(DRAW_CHUNK_ENTRIES) whatever the batch size, and chunked integer draws
# return exactly the values of one call for the whole batch, so the chunking
# does not move the stream.
DRAW_CHUNK_ENTRIES = 2**16


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

    The case of :func:`sample_cell_weights` with one cell per point.
    """
    n = scheme.n
    return sample_cell_weights(scheme, np.arange(n), n, size, rng)


def sample_cell_weights(
    scheme: WeightScheme, cells: np.ndarray, n_cells: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-cell sums of ``size`` independent weight vectors, shape ``(size, n_cells)``.

    Point ``i`` lies in cell ``cells[i]``; entry ``(r, k)`` is the sum of
    ``W_i`` over the points of cell ``k`` in draw ``r``, as a float.  Efron
    weights are resample counts: draw ``r`` takes ``n`` indices uniformly from
    ``range(n)``, which makes the counts exactly multinomial(n; 1/n, ..., 1/n),
    and counts the cells of those indices.  Rademacher weights are i.i.d.
    signs summed per cell.  Either way the integer draws are those of
    ``rng.integers`` over a ``(size, n)`` array, made in chunks of about
    ``DRAW_CHUNK_ENTRIES`` entries; shifting row ``r`` of a chunk by
    ``r * n_cells`` lets one ``bincount`` aggregate the whole chunk.
    """
    if size < 1:
        raise ValueError("need size >= 1")
    n = scheme.n
    cells = np.asarray(cells, dtype=np.intp)
    if cells.shape != (n,) or cells.min() < 0 or cells.max() >= n_cells:
        raise ValueError(f"cells must hold {n} indices in [0, {n_cells})")
    out = np.empty((size, n_cells))
    step = min(max(DRAW_CHUNK_ENTRIES // n, 1), size)
    shift = n_cells * np.arange(step)[:, None]
    # One bin buffer per call, filled in place: a fresh multi-megabyte
    # temporary per chunk costs as much in page faults as the bincount.
    # ``mode="clip"`` lets ``take`` write into ``out`` without buffering; the
    # drawn indices are in range, so it never clips.
    bins = np.empty((step, n), dtype=np.intp)
    for start in range(0, size, step):
        rows = min(step, size - start)
        chunk = bins[:rows]
        if scheme.kind is WeightKind.EFRON_MULTINOMIAL:
            np.take(cells, rng.integers(0, n, size=(rows, n)), out=chunk, mode="clip")
            chunk += shift[:rows]
            sums = np.bincount(chunk.ravel(), minlength=rows * n_cells)
        else:
            signs = 2.0 * rng.integers(0, 2, size=(rows, n)) - 1.0
            np.add(cells, shift[:rows], out=chunk)
            sums = np.bincount(chunk.ravel(), weights=signs.ravel(), minlength=rows * n_cells)
        out[start : start + rows] = sums.reshape(rows, n_cells)
    return out


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
    return np.random.default_rng(seq)
