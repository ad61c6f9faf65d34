"""Known densities with exact projection coefficients, norms, and samplers.

These oracles are the ground truth for tests and simulations.  Each one
provides closed-form values of ``E psi(X)`` for every basis family in
:mod:`densityball.basis`, the last two as arrays from one hook call per
Fourier model or per polynomial level:

* indicator integrals come from the exact CDF,
* ``_fourier_moments(cutoff)``, every trigonometric moment up to
  ``cutoff``, from elementary trig integrals (or orthonormality),
* ``_legendre_moments(pieces, r)``, the per-piece Legendre moments of one
  grid, from the Legendre antiderivative identity and, against a cosine
  density, from ``int_{-1}^{1} P_k(u) e^{i theta u} du = 2 i^k j_k(theta)``
  with ``j_k`` the spherical Bessel function, by recurrence
  (:func:`_spherical_bessel`).

Chain members reduce to these by linearity: each piecewise model maps
per-level values through its own map, a histogram the cell masses of each
of its levels with :meth:`~densityball.basis.HistogramModel.map_cells`, and
a piecewise-polynomial model the natural Legendre moments of each of its
levels with :meth:`~densityball.basis.PiecewisePolynomialModel.map_natural`.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import real, reals, whole
from .basis import FourierModel, HistogramModel, Model, PiecewisePolynomialModel, _cells, _legendre_table
from .estimators import Sample


class DensityOracle:
    """A density on [0, 1] with exact norms, CDF, and basis moments.

    A subclass gives its moments through the two array hooks below.
    """

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

    def _fourier_moments(self, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
        """``E sqrt(2) cos(2 pi j X)`` and ``E sqrt(2) sin(2 pi j X)`` for ``j = 1..cutoff``."""
        raise NotImplementedError

    def _legendre_moments(self, pieces: int, r: int) -> np.ndarray:
        """``E sqrt(pieces) sqrt(2k+1) P_k(u)`` on each of ``pieces`` pieces for ``k < r``; shape ``(pieces, r)``."""
        raise NotImplementedError

    def true_coefficients(self, model: Model) -> np.ndarray:
        """Exact coefficients of the projection of the density onto ``model``."""
        if isinstance(model, HistogramModel):
            return model.map_cells([np.diff(self.cdf(np.linspace(0.0, 1.0, m + 1))) for m in model.levels])[0]
        if isinstance(model, FourierModel):
            out = np.empty(model.dim)
            out[0] = 1.0
            out[1::2], out[2::2] = self._fourier_moments(model.cutoff)
            return out
        if isinstance(model, PiecewisePolynomialModel):
            return model.map_natural([self._legendre_moments(p, model.degree_bound) for p in model.levels])
        raise TypeError(f"no exact coefficients for model type {type(model).__name__}")


def residual_norm_sq(oracle: DensityOracle, model: Model) -> float:
    """Exact squared distance from the density to the model (its out-of-span mass)."""
    coeffs = oracle.true_coefficients(model)
    return max(oracle.norm2**2 - float(coeffs @ coeffs), 0.0)


def sample_from(oracle: DensityOracle, n: int, rng: np.random.Generator) -> Sample:
    """Draw an i.i.d. :class:`Sample` of size ``n`` from the oracle."""
    return Sample(oracle.sample_points(whole(n, "n", low=2), rng))


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

    def _fourier_moments(self, cutoff):
        return np.zeros(cutoff), np.zeros(cutoff)

    def _legendre_moments(self, pieces, r):
        out = np.zeros((pieces, r))
        out[:, 0] = 1.0 / math.sqrt(pieces)
        return out


class HistogramDensity(DensityOracle):
    """A piecewise-constant density on a regular partition of [0, 1].

    ``cell_values`` are the density values; they must be nonnegative with
    mean 1 so the density integrates to 1 exactly.
    """

    def __init__(self, cell_values):
        values = reals(cell_values, "cell values")
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

    def _fourier_moments(self, cutoff):
        # By parts, int s e^(2 pi i j x) dx is the sum over the cell edges c / cells
        # of the drops s(c-) - s(c+) times e^(2 pi i j c / cells), over 2 pi i j:
        # one DFT of the drops, periodic in j, in O(cutoff + cells) memory
        j = np.arange(1, cutoff + 1)
        dft = np.fft.fft(np.roll(self.cell_values, 1) - self.cell_values)[j % self.cells]
        scale = -math.sqrt(2.0) / (2.0 * math.pi * j)
        return scale * dft.imag, scale * dft.real

    def _legendre_moments(self, pieces, r):
        # Split the pieces at every oracle cell edge; the density is constant
        # on each fragment, so only Legendre antiderivatives remain.
        cuts = np.linspace(0.0, 1.0, self.cells + 1)
        owner = _cells(cuts, pieces)
        edges = np.arange(pieces + 1) / pieces
        inner = (cuts > edges[owner] + 1e-15) & (cuts < edges[owner + 1] - 1e-15)
        starts = np.concatenate([edges[:-1], cuts[inner]])
        order = np.argsort(starts)  # each fragment then ends where the next one starts
        a, piece = starts[order], np.concatenate([np.arange(pieces), owner[inner]])[order]
        b = np.append(a[1:], 1.0)
        value = self.density((a + b) / 2.0)
        table = _legendre_table(2.0 * (np.stack([a, b]) * pieces - piece) - 1.0, r + 1)
        anti = table[1:].copy()
        anti[1:] -= table[:-2]  # (2k+1) int P_k = P_{k+1} - P_{k-1}, at both ends of every fragment
        k = np.arange(r)
        integrals = value * ((anti[:, 1] - anti[:, 0]) / (2 * k + 1)[:, None])
        totals = np.bincount((piece + pieces * k[:, None]).ravel(), integrals.ravel(), pieces * r)
        return math.sqrt(pieces) * np.sqrt(2.0 * k + 1.0) * totals.reshape(r, pieces).T / (2.0 * pieces)


class CosineTiltDensity(DensityOracle):
    """``s(x) = 1 + amplitude sqrt(2) cos(2 pi frequency x)`` on [0, 1].

    Requires ``|amplitude| sqrt(2) <= 1`` so the density stays nonnegative.
    Exactly one trigonometric coefficient is nonzero, which makes this the
    natural stress case for Fourier models.
    """

    def __init__(self, amplitude: float, frequency: int):
        self.amplitude, self.frequency = real(amplitude, "amplitude"), whole(frequency, "frequency", low=1)
        if abs(self.amplitude) * math.sqrt(2.0) > 1.0 + 1e-12:
            raise ValueError("need |amplitude| * sqrt(2) <= 1 to keep the density nonnegative")
        if not math.isfinite(2.0 * math.pi * self.frequency):  # an infinite phase makes the density NaN everywhere
            raise ValueError("frequency is too large: 2 pi frequency overflows a float")
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

    def _fourier_moments(self, cutoff):
        cosine = np.where(np.arange(1, cutoff + 1) == self.frequency, self.amplitude, 0.0)
        return cosine, np.zeros(cutoff)

    def _legendre_moments(self, pieces, r):
        k = np.arange(r)
        theta = math.pi * self.frequency / pieces
        phase = (2 * np.arange(pieces)[:, None] + 1) * theta + k * math.pi / 2.0
        osc = np.sqrt(2.0 * (2 * k + 1)) * _spherical_bessel(r, theta) * np.cos(phase) / math.sqrt(pieces)
        return np.where(k == 0, 1.0 / math.sqrt(pieces), 0.0) + self.amplitude * osc


def _spherical_bessel(r: int, theta: float) -> np.ndarray:
    """The spherical Bessel functions ``j_0(theta) .. j_{r-1}(theta)`` for one ``theta > 0``.

    Both ways run ``j_{k-1} + j_{k+1} = (2k+1) j_k / theta``.  Upward from
    ``j_0`` and ``j_1`` it is stable while ``k <= theta``.  Otherwise it runs
    downward from well above ``r`` (Miller's algorithm, Gautschi 1967),
    rescaled before it overflows, normalised by ``sum (2k+1) j_k^2 = 1``, and
    signed by the larger of ``j_0`` and ``j_1``: near a zero of ``sin theta``
    the sign of ``j_0`` is noise.
    """
    sin, cos = math.sin(theta), math.cos(theta)
    first = (sin / theta, (sin / theta - cos) / theta)  # theta**2 overflows from about 1.3e154
    if theta >= r:
        values = list(first)
        for k in range(1, r - 1):
            values.append((2 * k + 1) / theta * values[k] - values[k - 1])
        return np.array(values[:r])
    top = r + 30 + math.isqrt(40 * r)
    values = [0.0, 1.0]  # j_{top+1} and j_top, up to a common factor
    for k in range(top, 0, -1):
        values.append((2 * k + 1) / theta * values[-1] - values[-2])
        if abs(values[-1]) > 1e200:
            values = [value * 1e-200 for value in values]
    j = np.array(values[::-1])
    j /= np.abs(j).max()  # the squares below stay finite
    j /= math.sqrt(np.arange(1, 2 * j.size, 2) @ (j * j))
    i = 0 if abs(first[0]) >= abs(first[1]) else 1
    return j[:r] if (j[i] < 0) == (first[i] < 0) else -j[:r]
