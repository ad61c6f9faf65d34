"""Exchangeable resampling weights.

A weight scheme is a law for ``(W_1, ..., W_n)`` that is invariant under
permutations of the coordinates.  Two schemes ship:

* ``EFRON_MULTINOMIAL`` -- multinomial(n; 1/n, ..., 1/n), the classical
  bootstrap counts, drawn as they are defined: ``W_i`` is the number of times
  index ``i`` occurs among ``n`` indices resampled uniformly with
  replacement (one integer draw and one ``bincount``, O(size * n) work);
* ``RADEMACHER_IID`` -- independent signs, cheap to enumerate exactly.

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

    Efron weights are resample counts: row ``r`` counts how often each index
    occurs among ``n`` indices drawn uniformly from ``range(n)``, which is
    exactly multinomial(n; 1/n, ..., 1/n).  All ``size * n`` indices come
    from one integer draw; shifting row ``r`` by ``r * n`` lets a single
    ``bincount`` count every row, O(size * n) integer work in total.
    Rademacher weights are i.i.d. signs from one integer draw.
    """
    if size < 1:
        raise ValueError("need size >= 1")
    n = scheme.n
    if scheme.kind is WeightKind.EFRON_MULTINOMIAL:
        idx = rng.integers(0, n, size=(size, n))
        idx += n * np.arange(size)[:, None]
        counts = np.bincount(idx.ravel(), minlength=size * n)
        del idx  # free the indices before the float copy to cap peak memory
        return counts.reshape(size, n).astype(float)
    return 2.0 * rng.integers(0, 2, size=(size, n)) - 1.0


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
