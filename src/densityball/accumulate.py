"""Compensated summation helpers.

The quadratic-functional estimators promise identities that hold to ~1e-10
even when the accumulations run over ``n * dim`` ~ 1e5 terms, so every
accuracy-critical reduction goes through :func:`math.fsum`, which tracks all
partial round-off and returns the correctly rounded sum.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np


def compensated_sum(values: np.ndarray | Iterable[float]) -> float:
    """Exactly rounded sum of ``values`` (any shape; arrays are flattened)."""
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    return math.fsum(values)


def row_sums(matrix: np.ndarray) -> np.ndarray:
    """Compensated sum of every row of a 2-d array."""
    return np.array([math.fsum(row) for row in matrix.tolist()], dtype=float)
