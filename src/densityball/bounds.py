"""Radius components with explicit constants.

The confidence radius of a model combines a data-driven part (the closed-form
resampling variance estimate and the nested-bias U-statistic) with additive
deviation terms carrying fully explicit constants:

* ``variance_deviation_constant(c1, c3) = 2040 c1 max(1, c1, 3 c1 c3 / 2)``
* ``bias_deviation_constant(eps, c1, c3)`` adds ``(2/eps) max(2, 2 c1, c3 c1^2 / 9)``

The variance bound uses the deviation level ``max(2 ln(2 N / beta), 2)`` and
the bias bound ``max(2 ln(6 N / beta), 2)``; the two are deliberately kept
distinct.  The bias bound minimizes over a fixed 99-point epsilon grid, which
keeps the optimization auditable.  ``kappa_scale`` rescales both constants
(0 switches the additive terms off for diagnostics; the theoretical choice
is 1 and is known to be conservative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import real
from .basis import ModelCollection, log_ratio

EPSILON_GRID = tuple(float(e) for e in np.linspace(0.01, 0.99, 99))


def variance_deviation_constant(c1: float, c3: float) -> float:
    """Explicit constant of the variance deviation term."""
    c1, c3 = real(c1, "c1"), real(c3, "c3")
    if c1 <= 0 or c3 <= 0:
        raise ValueError("constants must be positive")
    return _finite_constant(2040.0 * c1 * max(1.0, c1, 1.5 * c1 * c3), c1, c3)


def bias_deviation_constant(epsilon: float | np.ndarray, c1: float, c3: float) -> float | np.ndarray:
    """Explicit constant of the bias deviation term at trade-off ``epsilon``.

    ``epsilon`` is a number, giving a float, or an array, giving the
    constant at each of its entries; every entry must lie in (0, 1).
    """
    eps = np.asarray(epsilon if np.ndim(epsilon) else real(epsilon, "epsilon"), dtype=float)
    if not np.all((eps > 0.0) & (eps < 1.0)):  # NaN fails these comparisons too
        raise ValueError("epsilon must lie in (0, 1)")
    c1, c3 = real(c1, "c1"), real(c3, "c3")
    variance, spread = variance_deviation_constant(c1, c3), max(2.0, 2.0 * c1, c3 * c1 * c1 / 9.0)
    # the constant is largest at the smallest epsilon: if it is finite there, no entry overflows
    _finite_constant(variance + 2.0 / float(eps.min()) * spread, c1, c3)
    kappa = variance + (2.0 / eps) * spread
    return float(kappa) if eps.ndim == 0 else kappa


def _finite_constant(kappa: float, c1: float, c3: float) -> float:
    """``kappa`` if it is finite: finite constants whose product overflows are refused."""
    if not math.isfinite(kappa):
        raise ValueError(f"c1 and c3 must keep the deviation constant finite, got c1 = {c1:g}, c3 = {c3:g}")
    return kappa


@dataclass(frozen=True)
class BoundConfig:
    """Parameters of the radius bounds.

    ``m2`` and ``m_inf`` bound the L2 and sup norms of the unknown density,
    ``eta`` is the allowed out-of-span radius, and ``kappa_scale``
    multiplies the explicit constants.
    """

    beta: float
    m2: float
    m_inf: float
    eta: float = 0.0
    kappa_scale: float = 1.0

    def __post_init__(self):
        for name in ("beta", "m2", "m_inf", "eta", "kappa_scale"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        for name in ("m2", "m_inf"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("eta", "kappa_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


def _deviation_level(cardinality: int, beta: float, prefactor: float) -> float:
    return max(2.0 * log_ratio(prefactor * cardinality, beta), 2.0)


def variance_bounds(
    variance_estimates: np.ndarray,
    dims: np.ndarray,
    collection: ModelCollection,
    config: BoundConfig,
    n: int,
) -> np.ndarray:
    """Uniform high-probability bounds on the estimation-error term.

    One entry per (estimate, dimension) pair: the data-driven estimate plus
    the deviation term
    ``kappa (1 + sqrt(min(m_inf, m2 sqrt(d), d))) sqrt(d) x / n``.
    """
    estimates = np.asarray(variance_estimates, dtype=float)
    if np.any(estimates < 0):
        raise ValueError("the variance estimate is nonnegative by construction")
    d = np.asarray(dims, dtype=float)
    x = _deviation_level(len(collection), config.beta, 2.0)
    kappa = variance_deviation_constant(collection.c1, collection.c_m)
    root_d = np.sqrt(d)
    # an overflow gives inf: in m2 * sqrt(d) the minimum discards it, and a
    # deviation term that overflows is refused by radii
    with np.errstate(over="ignore"):
        norm_part = 1.0 + np.sqrt(np.minimum(np.minimum(config.m_inf, config.m2 * root_d), d))
        return estimates + config.kappa_scale * kappa * norm_part * root_d * x / n


def bias_bounds(
    bias_estimates: np.ndarray,
    collection: ModelCollection,
    config: BoundConfig,
    n: int,
) -> np.ndarray:
    """Uniform high-probability bounds on the squared bias term.

    Each entry minimizes ``(estimate + kappa(eps) A) / (1 - eps)`` over the
    epsilon grid, where ``A`` involves the *top* dimension of the
    collection, so the bound depends on the sub-model only through its
    estimate.  Negative estimates are allowed in the numerator.
    """
    d_top = collection.top.dim
    x = _deviation_level(len(collection), config.beta, 6.0)
    norm_part = 1.0 + math.sqrt(min(config.m_inf, config.m2 * math.sqrt(d_top)))
    base = config.kappa_scale * norm_part * math.sqrt(d_top) * x / n
    eps = np.array(EPSILON_GRID)
    kappa = bias_deviation_constant(eps, collection.c1, collection.c_m)
    estimates = np.asarray(bias_estimates, dtype=float)
    with np.errstate(over="ignore"):  # a deviation term that overflows is refused by radii
        return np.min((estimates[:, None] + kappa * base) / (1.0 - eps), axis=1)


def radii(
    variance_bound_values: np.ndarray, bias_bound_values: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(radius_sq, radius, clamped)`` with ``radius_sq = eta^2 + bias + variance``.

    The radicand can only go negative when ``kappa_scale`` is tiny and a bias
    estimate very negative; such a radius is clamped at zero and flagged.
    A radicand that overflows is refused with a ValueError naming the
    setting that made it overflow: ``eta`` or ``kappa_scale``.
    """
    try:
        eta_sq = eta**2
    except OverflowError:
        eta_sq = math.inf
    with np.errstate(over="ignore"):
        radius_sq = eta_sq + bias_bound_values + variance_bound_values
    if not np.all(np.isfinite(radius_sq)):
        setting = "eta" if eta_sq == math.inf else "kappa_scale"
        raise ValueError(f"the radius overflows the float range: {setting} is too large")
    clamped = radius_sq < 0.0
    return radius_sq, np.sqrt(np.where(clamped, 0.0, radius_sq)), clamped


@dataclass(frozen=True)
class ModelRadius:
    """Per-model record assembled while selecting the confidence ball."""

    model: str
    dim: int
    variance_estimate: float
    bias_estimate: float
    variance_bound: float
    bias_bound: float
    radius_sq: float
    radius: float
    clamped: bool


RadiusReport = tuple[ModelRadius, ...]
