"""Orthonormal function systems on [0, 1] and nested collections of them.

Three families are provided:

* regular histograms -- scaled indicators of a regular partition,
* trigonometric spaces -- the constant plus cosine/sine pairs,
* regular piecewise polynomials -- shifted Legendre polynomials per piece.

Every space satisfies the sup-norm control ``||t||_inf <= c1 sqrt(dim) ||t||``
with a family constant ``c1`` (1 for histograms and trigonometric systems,
computed numerically for piecewise polynomials).

A :class:`ModelCollection` chains nested spaces behind a single orthonormal
system, ordered so that the first ``dim`` indices of the top system span the
member of that dimension.  Histogram chains use Helmert-style contrasts
between successive refinements of a divisor chain; piecewise-polynomial
chains orthonormalize the successive embeddings numerically; trigonometric
spaces are nested in their natural ordering already.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import eval_legendre

from ._quadrature import piecewise_nodes


class Family(str, Enum):
    """Basis family of a model."""

    HISTOGRAM = "histogram"
    FOURIER = "fourier"
    PIECEWISE_POLYNOMIAL = "piecewise-polynomial"


def helmert_contrasts(r: int) -> np.ndarray:
    """Orthonormal contrast vectors of length ``r``.

    The rows are mutually orthonormal and each is orthogonal to the constant
    vector, so together with ``(1, ..., 1)/sqrt(r)`` they form an orthonormal
    basis of R^r.
    """
    if r < 2:
        raise ValueError("contrasts need r >= 2")
    h = np.zeros((r - 1, r))
    for level in range(1, r):
        scale = 1.0 / math.sqrt(level * (level + 1))
        h[level - 1, :level] = scale
        h[level - 1, level] = -level * scale
    return h


class Model:
    """A finite-dimensional orthonormal function system on [0, 1].

    Subclasses fix the family and provide vectorized evaluation via
    :meth:`basis_matrix`.  Instances are immutable after construction and
    safe to share across threads.
    """

    family: Family

    def __init__(self, dim: int, c1: float, label: str, params: dict):
        if dim < 1:
            raise ValueError("model dimension must be positive")
        self.dim = int(dim)
        self.c1 = float(c1)
        self.label = str(label)
        self.params = dict(params)

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        """Evaluate all basis functions at ``x``; shape ``(dim, len(x))``."""
        raise NotImplementedError

    def eval_basis(self, index: int, x: float) -> float:
        """Value of one basis function at one point, with range checks."""
        if not 0 <= index < self.dim:
            raise IndexError(f"basis index {index} out of range [0, {self.dim})")
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"evaluation point {x} outside [0, 1]")
        return float(self.basis_matrix(np.array([float(x)]))[index, 0])

    def breakpoints(self) -> np.ndarray:
        """Discontinuity / piece boundaries, always including 0 and 1."""
        return np.array([0.0, 1.0])

    def max_frequency(self) -> int:
        """Largest trigonometric frequency present (0 for piecewise families)."""
        return 0

    def shares_prefix_with(self, top: "Model") -> bool:
        """True when this model's basis is the leading block of ``top``'s."""
        return top is self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.label}>"


class HistogramModel(Model):
    """Scaled indicators ``sqrt(m) 1_[k/m,(k+1)/m)`` for ``k = 0..m-1``.

    The last cell is closed at 1 so that the pointwise identity
    ``sum_l psi_l(x)^2 = dim`` holds on all of [0, 1].
    """

    family = Family.HISTOGRAM

    def __init__(self, cells: int):
        if cells < 1:
            raise ValueError("histogram needs at least one cell")
        self.cells = int(cells)
        super().__init__(cells, 1.0, f"histogram-{cells}", {"cells": cells})

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cell = np.minimum((x * self.cells).astype(int), self.cells - 1)
        out = np.zeros((self.dim, x.size))
        out[cell, np.arange(x.size)] = math.sqrt(self.cells)
        return out

    def breakpoints(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.cells + 1)

    def shares_prefix_with(self, top: Model) -> bool:
        return isinstance(top, HistogramModel) and top.cells == self.cells


class FourierModel(Model):
    """The constant plus ``sqrt(2) cos(2 pi j x)`` / ``sqrt(2) sin(2 pi j x)``.

    Index order is ``[1, cos_1, sin_1, cos_2, sin_2, ...]`` up to frequency
    ``cutoff``, so dimension is ``2 cutoff + 1`` and smaller trigonometric
    models are literal prefixes of larger ones.
    """

    family = Family.FOURIER

    def __init__(self, cutoff: int):
        if cutoff < 0:
            raise ValueError("frequency cutoff must be >= 0")
        self.cutoff = int(cutoff)
        dim = 2 * self.cutoff + 1
        super().__init__(dim, 1.0, f"fourier-{dim}", {"cutoff": cutoff})

    @classmethod
    def from_dim(cls, dim: int) -> "FourierModel":
        if dim < 1 or dim % 2 == 0:
            raise ValueError("trigonometric dimension must be odd and positive")
        return cls((dim - 1) // 2)

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty((self.dim, x.size))
        out[0] = 1.0
        if self.cutoff:
            freqs = np.arange(1, self.cutoff + 1)
            angles = 2.0 * np.pi * freqs[:, None] * x[None, :]
            out[1::2] = math.sqrt(2.0) * np.cos(angles)
            out[2::2] = math.sqrt(2.0) * np.sin(angles)
        return out

    def max_frequency(self) -> int:
        return self.cutoff

    def shares_prefix_with(self, top: Model) -> bool:
        return isinstance(top, FourierModel) and self.cutoff <= top.cutoff


@lru_cache(maxsize=None)
def _legendre_sup_ratio(degree_bound: int) -> float:
    """Numerical sup of ``sum_k (2k+1) P_k(u)^2 / r`` over u in [-1, 1].

    This is the squared sup-norm constant of the per-piece Legendre system;
    the maximum sits at the endpoints where every P_k equals 1.
    """
    u = np.linspace(-1.0, 1.0, 2001)
    total = np.zeros_like(u)
    for k in range(degree_bound):
        total += (2 * k + 1) * eval_legendre(k, u) ** 2
    return float(np.max(total) / degree_bound)


class PiecewisePolynomialModel(Model):
    """Per-piece shifted Legendre polynomials on a regular partition.

    On each of ``pieces`` intervals the functions are
    ``sqrt(pieces) sqrt(2k+1) P_k(u)`` for ``k = 0..degree_bound-1`` with
    ``u`` the affine map of the piece onto [-1, 1].  Dimension is
    ``pieces * degree_bound``; indices run piece-major.
    """

    family = Family.PIECEWISE_POLYNOMIAL

    def __init__(self, pieces: int, degree_bound: int):
        if pieces < 1 or degree_bound < 1:
            raise ValueError("need pieces >= 1 and degree_bound >= 1")
        self.pieces = int(pieces)
        self.degree_bound = int(degree_bound)
        dim = self.pieces * self.degree_bound
        c1 = math.sqrt(_legendre_sup_ratio(self.degree_bound))
        super().__init__(
            dim,
            c1,
            f"poly-{pieces}x{degree_bound}",
            {"pieces": pieces, "degree_bound": degree_bound},
        )

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        piece = np.minimum((x * self.pieces).astype(int), self.pieces - 1)
        u = 2.0 * (x * self.pieces - piece) - 1.0
        out = np.zeros((self.dim, x.size))
        cols = np.arange(x.size)
        root = math.sqrt(self.pieces)
        for k in range(self.degree_bound):
            out[piece * self.degree_bound + k, cols] = (
                root * math.sqrt(2 * k + 1) * eval_legendre(k, u)
            )
        return out

    def breakpoints(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.pieces + 1)

    def shares_prefix_with(self, top: Model) -> bool:
        return (
            isinstance(top, PiecewisePolynomialModel)
            and top.pieces == self.pieces
            and top.degree_bound == self.degree_bound
        )


def _validate_divisor_chain(values: Sequence[int], what: str) -> tuple[int, ...]:
    vals = tuple(int(v) for v in values)
    if not vals:
        raise ValueError(f"empty {what} chain")
    if any(v < 1 for v in vals):
        raise ValueError(f"{what} counts must be positive")
    if any(b <= a for a, b in zip(vals[:-1], vals[1:])):
        raise ValueError(f"{what} chain must be strictly increasing")
    for a, b in zip(vals[:-1], vals[1:]):
        if b % a != 0:
            raise ValueError(f"{what} chain requires each count to divide the next ({a} | {b} fails)")
    return vals


class _HistogramChain:
    """Shared nested orthonormal system for a divisor chain of histograms.

    The first ``dims[0]`` functions are the natural indicators of the
    coarsest grid; every later level contributes, per coarse cell, the
    Helmert contrasts of its refined sub-cells, which span the orthogonal
    complement of the coarser space.
    """

    def __init__(self, dims: Sequence[int]):
        self.dims = _validate_divisor_chain(dims, "histogram")
        self._levels = []
        for prev, cur in zip(self.dims[:-1], self.dims[1:]):
            self._levels.append((prev, cur, cur // prev, helmert_contrasts(cur // prev)))

    def matrix(self, x: np.ndarray, dim: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cols = np.arange(x.size)
        out = np.zeros((dim, x.size))
        first = self.dims[0]
        cell = np.minimum((x * first).astype(int), first - 1)
        out[cell, cols] = math.sqrt(first)
        offset = first
        for prev, cur, ratio, contrasts in self._levels:
            if offset >= dim:
                break
            fine = np.minimum((x * cur).astype(int), cur - 1)
            coarse = fine // ratio
            within = fine - coarse * ratio
            scale = math.sqrt(cur)
            for l in range(ratio - 1):
                rows = offset + coarse * (ratio - 1) + l
                out[rows, cols] = scale * contrasts[l, within]
            offset += cur - prev
        return out

    def row_supports(self, dim: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Piecewise-constant description ``(grid, cells, values)`` per row."""
        rows: list[tuple[int, np.ndarray, np.ndarray]] = []
        first = self.dims[0]
        for cell in range(first):
            rows.append((first, np.array([cell]), np.array([math.sqrt(first)])))
        for prev, cur, ratio, contrasts in self._levels:
            if len(rows) >= dim:
                break
            for coarse in range(prev):
                cells = coarse * ratio + np.arange(ratio)
                for l in range(ratio - 1):
                    rows.append((cur, cells, math.sqrt(cur) * contrasts[l]))
        return rows[:dim]


class NestedHistogramModel(Model):
    """One histogram space viewed through its chain's nested system."""

    family = Family.HISTOGRAM

    def __init__(self, chain: _HistogramChain, cells: int):
        if cells not in chain.dims:
            raise ValueError(f"{cells} is not a level of the chain {chain.dims}")
        self.chain = chain
        self.cells = int(cells)
        super().__init__(
            cells, 1.0, f"histogram-{cells}", {"cells": cells, "chain": list(chain.dims)}
        )

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        return self.chain.matrix(x, self.dim)

    def breakpoints(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.cells + 1)

    def row_supports(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        return self.chain.row_supports(self.dim)

    def shares_prefix_with(self, top: Model) -> bool:
        return (
            isinstance(top, NestedHistogramModel)
            and top.chain is self.chain
            and self.dim <= top.dim
        )


class _PolynomialChain:
    """Nested orthonormal system for a divisor chain of polynomial spaces.

    Functions are represented by their coefficients in the natural basis of
    the finest space.  Each coarser space embeds exactly (Gauss quadrature of
    sufficient order), and the orthogonal complement between consecutive
    levels is extracted by projection followed by an SVD, which yields an
    orthonormal completion of known rank.
    """

    def __init__(self, piece_counts: Sequence[int], degree_bound: int):
        self.piece_counts = _validate_divisor_chain(piece_counts, "piece")
        self.degree_bound = int(degree_bound)
        if self.degree_bound < 1:
            raise ValueError("degree bound must be >= 1")
        self.top_natural = PiecewisePolynomialModel(self.piece_counts[-1], self.degree_bound)
        self.transform = self._build_transform()

    def _build_transform(self) -> np.ndarray:
        top = self.top_natural
        order = max(self.degree_bound, 2)
        x, w = piecewise_nodes(top.breakpoints(), order)
        psi_top = top.basis_matrix(x)
        d_top = top.dim
        q = np.zeros((d_top, d_top))
        filled = 0
        for pieces in self.piece_counts:
            member = PiecewisePolynomialModel(pieces, self.degree_bound)
            embed = (psi_top * w) @ member.basis_matrix(x).T
            if filled == 0:
                block = embed
            else:
                prev = q[:, :filled]
                block = embed - prev @ (prev.T @ embed)
                block -= prev @ (prev.T @ block)
                u, _, _ = np.linalg.svd(block, full_matrices=False)
                block = u[:, : member.dim - filled]
            q[:, filled : filled + block.shape[1]] = block
            filled += block.shape[1]
        return q

    def matrix(self, x: np.ndarray, dim: int) -> np.ndarray:
        return self.transform[:, :dim].T @ self.top_natural.basis_matrix(x)


class NestedPiecewisePolynomialModel(Model):
    """One piecewise-polynomial space viewed through its chain's system."""

    family = Family.PIECEWISE_POLYNOMIAL

    def __init__(self, chain: _PolynomialChain, pieces: int):
        if pieces not in chain.piece_counts:
            raise ValueError(f"{pieces} is not a level of the chain {chain.piece_counts}")
        self.chain = chain
        self.pieces = int(pieces)
        self.degree_bound = chain.degree_bound
        dim = self.pieces * self.degree_bound
        c1 = math.sqrt(_legendre_sup_ratio(self.degree_bound))
        super().__init__(
            dim,
            c1,
            f"poly-{pieces}x{self.degree_bound}",
            {
                "pieces": pieces,
                "degree_bound": self.degree_bound,
                "chain": list(chain.piece_counts),
            },
        )

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        return self.chain.matrix(x, self.dim)

    def breakpoints(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.pieces + 1)

    def transform_block(self) -> np.ndarray:
        """Coefficients of this model's basis in the top natural basis."""
        return self.chain.transform[:, : self.dim]

    def shares_prefix_with(self, top: Model) -> bool:
        return (
            isinstance(top, NestedPiecewisePolynomialModel)
            and top.chain is self.chain
            and self.dim <= top.dim
        )


class ModelCollection:
    """An increasing nested family of models sharing one orthonormal system.

    The last model spans every other one and the member of dimension ``d``
    is exactly the span of the first ``d`` indices of the top system, so
    coefficient vectors of members embed into the top model by zero padding.
    ``c_m`` is the cap used by the dimension-growth check and ``c1`` the
    largest sup-norm constant of the members.
    """

    def __init__(self, models: Sequence[Model], c_m: float = 4.0):
        models = tuple(models)
        if not models:
            raise ValueError("a collection needs at least one model")
        dims = [m.dim for m in models]
        if any(b <= a for a, b in zip(dims[:-1], dims[1:])):
            raise ValueError("models must have strictly increasing dimensions")
        top = models[-1]
        for m in models:
            if not m.shares_prefix_with(top):
                raise ValueError(f"model {m.label} is not a nested prefix of {top.label}")
        if c_m <= 0:
            raise ValueError("c_m must be positive")
        self.models = models
        self.c_m = float(c_m)
        self.c1 = max(m.c1 for m in models)

    @property
    def top(self) -> Model:
        return self.models[-1]

    @property
    def top_index(self) -> int:
        return len(self.models) - 1

    @property
    def cardinality(self) -> int:
        return len(self.models)

    def __iter__(self):
        return iter(self.models)

    def __len__(self) -> int:
        return len(self.models)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ModelCollection {[m.label for m in self.models]}>"


def histogram_collection(dims: Sequence[int], c_m: float = 4.0) -> ModelCollection:
    """Nested histograms over a divisor chain of cell counts (e.g. dyadic)."""
    chain = _HistogramChain(sorted(int(d) for d in dims))
    return ModelCollection([NestedHistogramModel(chain, d) for d in chain.dims], c_m=c_m)


def fourier_collection(
    dims: Sequence[int] | None = None,
    cutoffs: Sequence[int] | None = None,
    c_m: float = 4.0,
) -> ModelCollection:
    """Nested trigonometric spaces given by odd dimensions or by cutoffs."""
    if (dims is None) == (cutoffs is None):
        raise ValueError("give exactly one of dims= or cutoffs=")
    if dims is not None:
        models = [FourierModel.from_dim(d) for d in sorted(int(d) for d in dims)]
    else:
        models = [FourierModel(j) for j in sorted(int(j) for j in cutoffs)]
    return ModelCollection(models, c_m=c_m)


def piecewise_polynomial_collection(
    piece_counts: Sequence[int], degree_bound: int, c_m: float = 4.0
) -> ModelCollection:
    """Nested piecewise-polynomial spaces over a divisor chain of pieces."""
    chain = _PolynomialChain(sorted(int(p) for p in piece_counts), degree_bound)
    return ModelCollection(
        [NestedPiecewisePolynomialModel(chain, p) for p in chain.piece_counts], c_m=c_m
    )


def fourier_collection_for_sobolev(n: int, gamma: float, c_m: float = 4.0) -> ModelCollection:
    """Trigonometric collection sized for a Sobolev smoothness ``gamma``.

    The top cutoff is ``floor(min(n**(1/(2 gamma + 1/2)), n^2 / (ln n)^2))``
    and the collection holds one model per cutoff from 1 up to it.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    rate = float(n) ** (1.0 / (2.0 * gamma + 0.5))
    cap = float(n) ** 2 / math.log(n) ** 2
    top = max(int(min(rate, cap)), 1)
    return fourier_collection(cutoffs=range(1, top + 1), c_m=c_m)


@dataclass(frozen=True)
class SupNormReport:
    """Empirical check of the sup-norm control constant of one model."""

    empirical_ratio: float
    holds: bool


def check_sup_norm_control(
    model: Model,
    trials: int = 1000,
    rng_seed: int = 0,
    tol: float = 1e-6,
    grid_points: int = 1024,
) -> SupNormReport:
    """Search for violations of ``||t||_inf <= c1 sqrt(dim) ||t||``.

    Draws random unit coefficient vectors, evaluates them on a grid that
    includes midpoints between breakpoints, and reports the largest observed
    ``|t(x)| / sqrt(dim)``; the control holds when that ratio stays below
    ``c1 (1 + tol)``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(rng_seed)
    bps = model.breakpoints()
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid_points), (bps[:-1] + bps[1:]) / 2.0]))
    psi = model.basis_matrix(xs)
    coef = rng.standard_normal((trials, model.dim))
    norms = np.linalg.norm(coef, axis=1)
    norms[norms == 0] = 1.0
    coef /= norms[:, None]
    ratio = float(np.max(np.abs(coef @ psi)) / math.sqrt(model.dim))
    return SupNormReport(empirical_ratio=ratio, holds=ratio <= model.c1 * (1.0 + tol))


@dataclass(frozen=True)
class GrowthReport:
    """Log-cardinality / dimension growth check for a collection."""

    value: float
    bound: float
    holds: bool


def check_dimension_growth(collection: ModelCollection, n: int, beta: float) -> GrowthReport:
    """Check ``2 sqrt(d_top) ln(6 N / beta) / n <= c_m`` for the collection."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    d_top = collection.top.dim
    value = 2.0 * math.sqrt(d_top) * math.log(6.0 * collection.cardinality / beta) / n
    return GrowthReport(value=value, bound=collection.c_m, holds=value <= collection.c_m)
