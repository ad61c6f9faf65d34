"""Piecewise Gauss-Legendre quadrature on [0, 1].

Integrands here are piecewise smooth: polynomial between the breakpoints of
the function systems and densities involved, or trigonometric with a known
maximal frequency.  Splitting at all breakpoints and keeping sub-intervals
short relative to the oscillation wavelength makes fixed-order Gauss rules
exact for the polynomial pieces and accurate to machine precision for the
trigonometric ones.
"""

from __future__ import annotations

import numpy as np


def piecewise_nodes(breakpoints: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights of given order on every sub-interval."""
    bps = np.asarray(breakpoints, dtype=float)
    if bps.ndim != 1 or bps.size < 2:
        raise ValueError("need at least two breakpoints")
    if np.any(np.diff(bps) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    u, w = np.polynomial.legendre.leggauss(int(order))
    left = bps[:-1]
    half = np.diff(bps) / 2.0
    x = (left + half)[:, None] + half[:, None] * u[None, :]
    ww = half[:, None] * w[None, :]
    return x.ravel(), ww.ravel()


def refine_breakpoints(breakpoints: np.ndarray, max_width: float) -> np.ndarray:
    """Subdivide intervals so that none is wider than ``max_width``."""
    bps = np.asarray(breakpoints, dtype=float)
    pieces = [np.array([bps[0]])]
    for a, b in zip(bps[:-1], bps[1:]):
        k = max(int(np.ceil((b - a) / max_width)), 1)
        pieces.append(np.linspace(a, b, k + 1)[1:])
    return np.concatenate(pieces)


def merged_breakpoints(*sets: np.ndarray) -> np.ndarray:
    """Sorted union of breakpoint sets, deduplicated to 1e-14."""
    allpts = np.sort(np.concatenate([np.asarray(s, dtype=float) for s in sets]))
    keep = np.concatenate([[True], np.diff(allpts) > 1e-14])
    return allpts[keep]


def nodes_for(model, oracle=None, order: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes adapted to a model and (optionally) a density."""
    sets = [model.breakpoints()]
    fmax = model.max_frequency()
    if oracle is not None:
        sets.append(oracle.breakpoints())
        fmax += oracle.max_frequency()
    bps = merged_breakpoints(*sets)
    bps = refine_breakpoints(bps, max_width=0.25 / (fmax + 1))
    return piecewise_nodes(bps, order)


def density_gram(model, oracle) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and first moments of the basis against a density.

    Returns ``(G, c)`` with ``G[i, j] = integral psi_i psi_j s`` and
    ``c[i] = integral psi_i s``, by Gauss rules of order 16.
    """
    x, w = nodes_for(model, oracle, order=16)
    psi = model.basis_matrix(x)
    sw = w * oracle.density(x)
    return (psi * sw) @ psi.T, psi @ sw
