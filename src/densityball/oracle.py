"""Known densities with exact projection coefficients, norms, and samplers.

These oracles are the ground truth for tests and simulations.  Each one
provides closed-form values of ``E psi(X)`` for every basis family in
:mod:`densityball.basis`:

* indicator integrals come from the exact CDF,
* trigonometric moments from elementary trig integrals (or orthonormality),
* per-piece Legendre moments from the Legendre antiderivative identity and,
  against a cosine density, from ``int_{-1}^{1} P_k(u) e^{i theta u} du =
  2 i^k j_k(theta)`` with ``j_k`` the spherical Bessel function.

Chain members reduce to these by linearity: histogram functions are
constant on the member's cells, and a piecewise-polynomial model maps the
natural Legendre moments of each of its levels to its own coefficients with
:meth:`~densityball.basis.PiecewisePolynomialModel.map_natural`.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import FourierModel, HistogramModel, Model, PiecewisePolynomialModel, _cells, _legendre
from .estimators import Sample


class DensityOracle:
    """A density on [0, 1] with exact norms, CDF, and basis moments."""

    norm2: float
    norm_inf: float

    def density(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` points drawn with ``rng`` alone.

        The experiments call this from several threads at once, each with its
        own generator, so it must be thread-safe: a subclass that keeps
        mutable state (a cache, a counter) has to guard it.
        """
        raise NotImplementedError

    def breakpoints(self) -> np.ndarray:
        return np.array([0.0, 1.0])

    def max_frequency(self) -> int:
        return 0

    # -- exact basis moments ------------------------------------------------

    def _cosine_moment(self, j: int) -> float:
        """``E sqrt(2) cos(2 pi j X)`` for ``j >= 1``."""
        raise NotImplementedError

    def _sine_moment(self, j: int) -> float:
        """``E sqrt(2) sin(2 pi j X)`` for ``j >= 1``."""
        raise NotImplementedError

    def _legendre_piece_moment(self, pieces: int, piece: int, degree: int) -> float:
        """Moment of the natural piecewise-Legendre function ``(piece, degree)``."""
        raise NotImplementedError

    def true_coefficients(self, model: Model) -> np.ndarray:
        """Exact coefficients of the projection of the density onto ``model``."""
        if isinstance(model, HistogramModel):
            # every basis function is constant on the model's own cells
            edges = np.linspace(0.0, 1.0, model.cells + 1)
            masses = self.cdf(edges[1:]) - self.cdf(edges[:-1])
            return model.basis_matrix((edges[:-1] + edges[1:]) / 2.0) @ masses
        if isinstance(model, FourierModel):
            out = np.empty(model.dim)
            out[0] = 1.0
            for j in range(1, model.cutoff + 1):
                out[2 * j - 1] = self._cosine_moment(j)
                out[2 * j] = self._sine_moment(j)
            return out
        if isinstance(model, PiecewisePolynomialModel):
            r, moment = model.degree_bound, self._legendre_piece_moment
            natural = [[moment(p, piece, k) for piece in range(p) for k in range(r)] for p in model.levels]
            return model.map_natural(natural)
        raise TypeError(f"no exact coefficients for model type {type(model).__name__}")


def true_bias_sq(oracle: DensityOracle, sub_model: Model, top_model: Model) -> float:
    """Exact squared bias between the projections onto two nested models."""
    if not sub_model.shares_prefix_with(top_model):
        raise ValueError(
            f"{sub_model.label} is not nested in {top_model.label} (no shared index prefix)"
        )
    tail = oracle.true_coefficients(top_model)[sub_model.dim :]
    return float(tail @ tail)


def residual_norm_sq(oracle: DensityOracle, model: Model) -> float:
    """Exact squared distance from the density to the model (its out-of-span mass)."""
    coeffs = oracle.true_coefficients(model)
    return max(oracle.norm2**2 - float(coeffs @ coeffs), 0.0)


def sample_from(oracle: DensityOracle, n: int, rng: np.random.Generator) -> Sample:
    """Draw an i.i.d. :class:`Sample` of size ``n`` from the oracle."""
    if n < 2:
        raise ValueError("need n >= 2")
    return Sample(oracle.sample_points(n, rng))


class UniformDensity(DensityOracle):
    """The uniform density on [0, 1]."""

    norm2 = 1.0
    norm_inf = 1.0

    def density(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def sample_points(self, n, rng):
        return rng.random(n)

    def _cosine_moment(self, j):
        return 0.0

    def _sine_moment(self, j):
        return 0.0

    def _legendre_piece_moment(self, pieces, piece, degree):
        return 1.0 / math.sqrt(pieces) if degree == 0 else 0.0


def _legendre_integral(degree: int, a: float, b: float) -> float:
    """``int_a^b P_degree(u) du`` on [-1, 1] via the antiderivative identity."""
    if degree == 0:
        return b - a
    upper = _legendre(degree + 1, b) - _legendre(degree - 1, b)
    lower = _legendre(degree + 1, a) - _legendre(degree - 1, a)
    return float(upper - lower) / (2 * degree + 1)


class HistogramDensity(DensityOracle):
    """A piecewise-constant density on a regular partition of [0, 1].

    ``cell_values`` are the density values; they must be nonnegative with
    mean 1 so the density integrates to 1 exactly.
    """

    def __init__(self, cell_values):
        values = np.asarray(cell_values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("cell_values must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError("cell values must be finite")
        if np.any(values < 0):
            raise ValueError("cell values must be nonnegative")
        with np.errstate(over="ignore"):  # finite values whose sum overflows average to inf, refused below
            mean = values.mean()
        if abs(mean - 1.0) > 1e-9:
            raise ValueError("cell values must average to 1 so the density integrates to 1")
        self.cell_values = values
        self.cells = values.size
        self.norm2 = math.sqrt(float(np.mean(values**2)))
        self.norm_inf = float(np.max(values))
        self._cum = np.concatenate([[0.0], np.cumsum(values / self.cells)])
        self._cum[-1] = 1.0

    def density(self, x):
        return self.cell_values[_cells(x, self.cells)]

    def cdf(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        cell = _cells(x, self.cells)
        return self._cum[cell] + self.cell_values[cell] * (x - cell / self.cells)

    def sample_points(self, n, rng):
        q = rng.random(n)
        cell = np.minimum(np.searchsorted(self._cum, q, side="right") - 1, self.cells - 1)
        cell = np.maximum(cell, 0)
        vals = self.cell_values[cell]
        offset = np.where(vals > 0, (q - self._cum[cell]) / np.where(vals > 0, vals, 1.0), 0.0)
        return cell / self.cells + offset

    def breakpoints(self):
        return np.linspace(0.0, 1.0, self.cells + 1)

    def _cosine_moment(self, j):
        edges = np.linspace(0.0, 1.0, self.cells + 1)
        two_pi_j = 2.0 * math.pi * j
        terms = self.cell_values * (np.sin(two_pi_j * edges[1:]) - np.sin(two_pi_j * edges[:-1]))
        return math.sqrt(2.0) * float(terms.sum()) / two_pi_j

    def _sine_moment(self, j):
        edges = np.linspace(0.0, 1.0, self.cells + 1)
        two_pi_j = 2.0 * math.pi * j
        terms = self.cell_values * (np.cos(two_pi_j * edges[:-1]) - np.cos(two_pi_j * edges[1:]))
        return math.sqrt(2.0) * float(terms.sum()) / two_pi_j

    def _legendre_piece_moment(self, pieces, piece, degree):
        # Split the basis piece at every oracle cell edge; the density is
        # constant on each fragment, so only Legendre antiderivatives remain.
        left, right = piece / pieces, (piece + 1) / pieces
        cuts = np.linspace(0.0, 1.0, self.cells + 1)
        inner = cuts[(cuts > left + 1e-15) & (cuts < right - 1e-15)]
        edges = np.concatenate([[left], inner, [right]])
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            value = float(self.density(np.array([(a + b) / 2.0]))[0])
            ua = 2.0 * (a * pieces - piece) - 1.0
            ub = 2.0 * (b * pieces - piece) - 1.0
            total += value * _legendre_integral(degree, ua, ub)
        return math.sqrt(pieces) * math.sqrt(2 * degree + 1) * total / (2.0 * pieces)


class CosineTiltDensity(DensityOracle):
    """``s(x) = 1 + amplitude sqrt(2) cos(2 pi frequency x)`` on [0, 1].

    Requires ``|amplitude| sqrt(2) <= 1`` so the density stays nonnegative.
    Exactly one trigonometric coefficient is nonzero, which makes this the
    natural stress case for Fourier models.
    """

    def __init__(self, amplitude: float, frequency: int):
        if not (math.isfinite(amplitude) and math.isfinite(frequency)):
            raise ValueError("amplitude and frequency must be finite")
        if abs(amplitude) * math.sqrt(2.0) > 1.0 + 1e-12:
            raise ValueError("need |amplitude| * sqrt(2) <= 1 to keep the density nonnegative")
        if frequency < 1 or int(frequency) != frequency:
            raise ValueError("frequency must be a positive integer")
        self.amplitude = float(amplitude)
        self.frequency = int(frequency)
        self.norm2 = math.sqrt(1.0 + self.amplitude**2)
        self.norm_inf = 1.0 + abs(self.amplitude) * math.sqrt(2.0)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return 1.0 + self.amplitude * math.sqrt(2.0) * np.cos(2.0 * math.pi * self.frequency * x)

    def cdf(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        w = 2.0 * math.pi * self.frequency
        return x + self.amplitude * math.sqrt(2.0) * np.sin(w * x) / w

    def sample_points(self, n, rng):
        # Rejection from the uniform proposal with the exact sup bound.
        out = np.empty(0)
        while out.size < n:
            m = max(int((n - out.size) * self.norm_inf * 1.2) + 16, 16)
            x = rng.random(m)
            u = rng.random(m)
            out = np.concatenate([out, x[u * self.norm_inf <= self.density(x)]])
        return out[:n]

    def max_frequency(self):
        return self.frequency

    def _cosine_moment(self, j):
        return self.amplitude if j == self.frequency else 0.0

    def _sine_moment(self, j):
        return 0.0

    def _legendre_piece_moment(self, pieces, piece, degree):
        from scipy.special import spherical_jn  # on first use: histogram and Fourier work never needs it

        base = 1.0 / math.sqrt(pieces) if degree == 0 else 0.0
        theta = math.pi * self.frequency / pieces
        phase = (2 * piece + 1) * theta + degree * math.pi / 2.0
        osc = (
            math.sqrt(2.0 * (2 * degree + 1))
            * float(spherical_jn(degree, theta))
            * math.cos(phase)
            / math.sqrt(pieces)
        )
        return base + self.amplitude * osc
