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
member of that dimension.  A histogram or piecewise-polynomial model is one
level of a divisor chain of grids and evaluates through the chain's system;
a standalone model is the one-level chain, whose system is the natural one.
Histogram chains use Helmert-style contrasts between successive refinements;
piecewise-polynomial chains orthonormalize the successive embeddings
numerically; trigonometric spaces are nested in their natural ordering
already.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._quadrature import piecewise_nodes

# Basis entries evaluated per chunk of points by Model.basis_sums: memory stays
# O(CHUNK_ENTRIES) whatever the sample size, instead of a dense (dim, n) matrix.
CHUNK_ENTRIES = 2**20
# Complex powers per multiply in FourierModel.basis_sums: a cache-sized block
# of points, or of several consecutive powers of a few points.
POWER_CHUNK_ENTRIES = 2**14


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

    def basis_sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``S_l = sum_i psi_l(x_i)`` and ``Q_l = sum_i psi_l(x_i)^2`` for every index ``l``.

        The points are streamed in chunks of about ``CHUNK_ENTRIES`` basis
        entries, so each basis function is evaluated once per point.
        """
        x = np.asarray(x, dtype=float)
        step = max(CHUNK_ENTRIES // self.dim, 1)
        sums = np.zeros(self.dim)
        squares = np.zeros(self.dim)
        for start in range(0, x.size, step):
            psi = self.basis_matrix(x[start : start + step])
            sums += psi.sum(axis=1)
            squares += np.einsum("ij,ij->i", psi, psi)
        return sums, squares

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


def _cells(x: np.ndarray, m: int) -> np.ndarray:
    """Cell ``min(floor(m x), m - 1)`` of each point on the regular ``m``-grid."""
    return np.minimum((np.asarray(x, dtype=float) * m).astype(int), m - 1)


class HistogramModel(Model):
    """The regular histogram space with ``cells`` cells, one level of a chain.

    Its basis is the first ``cells`` functions of ``chain``'s nested system.
    Without a chain the model is the one-level chain ``(cells,)``, whose
    functions are the scaled indicators ``sqrt(m) 1_[k/m,(k+1)/m)`` for
    ``k = 0..m-1``.  The last cell is closed at 1 so that the pointwise
    identity ``sum_l psi_l(x)^2 = dim`` holds on all of [0, 1].
    """

    def __init__(self, cells: int, chain: _HistogramChain | None = None):
        params = {"cells": cells}
        if chain is None:
            chain = _HistogramChain((cells,))
        else:
            params["chain"] = list(chain.dims)
        if cells not in chain.dims:
            raise ValueError(f"{cells} is not a level of the chain {chain.dims}")
        self.chain = chain
        self.cells = int(cells)
        super().__init__(cells, 1.0, f"histogram-{cells}", params)

    def cell_index(self, x: np.ndarray) -> np.ndarray:
        """Index ``k`` of the cell holding each point; 1 is in the last cell."""
        return _cells(x, self.cells)

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        return self.chain.matrix(x, self.dim)

    def basis_sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.chain.sums(x, self.dim)

    def breakpoints(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.cells + 1)

    def shares_prefix_with(self, top: Model) -> bool:
        return isinstance(top, HistogramModel) and top.chain.dims == self.chain.dims and self.dim <= top.dim


class FourierModel(Model):
    """The constant plus ``sqrt(2) cos(2 pi j x)`` / ``sqrt(2) sin(2 pi j x)``.

    Index order is ``[1, cos_1, sin_1, cos_2, sin_2, ...]`` up to frequency
    ``cutoff``, so dimension is ``2 cutoff + 1`` and smaller trigonometric
    models are literal prefixes of larger ones.
    """

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

    def basis_sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sums from the power sums ``T_j = sum_i z_i^j``, ``z_i = exp(2 pi i x_i)``.

        ``S`` is ``sqrt(2)`` times ``Re T_j`` and ``Im T_j``; ``Q`` follows
        from ``2 cos^2 a = 1 + cos 2a`` and ``2 sin^2 a = 1 - cos 2a`` as
        ``n + Re T_2j`` and ``n - Re T_2j``.  One complex exponential per
        point and one complex multiply per basis entry, no basis matrix.
        """
        x = np.asarray(x, dtype=float)
        n = float(x.size)
        power = _power_sums(x, 2 * self.cutoff)
        sums = np.empty(self.dim)
        squares = np.empty(self.dim)
        sums[0] = squares[0] = n
        sums[1::2] = math.sqrt(2.0) * power[: self.cutoff].real
        sums[2::2] = math.sqrt(2.0) * power[: self.cutoff].imag
        double = power[1::2].real
        squares[1::2] = n + double
        squares[2::2] = n - double
        return sums, squares

    def max_frequency(self) -> int:
        return self.cutoff

    def shares_prefix_with(self, top: Model) -> bool:
        return isinstance(top, FourierModel) and self.cutoff <= top.cutoff


def _power_sums(x: np.ndarray, top: int) -> np.ndarray:
    """``T_j = sum_i exp(2 pi i j x_i)`` for ``j = 1..top``.

    The points are taken ``POWER_CHUNK_ENTRIES`` at a time.  For a chunk of
    ``m`` points a block holds the powers ``z^(j+1) .. z^(j+rows)`` of every
    point, with ``rows`` chosen so that the block has about
    ``POWER_CHUNK_ENTRIES`` entries (one row once ``m`` reaches it), and one
    in-place multiply by ``z^rows`` moves it on to the next ``rows`` powers.
    """
    power = np.zeros(top, dtype=complex)
    if top == 0:
        return power
    for start in range(0, x.size, POWER_CHUNK_ENTRIES):
        z = np.exp(2j * np.pi * x[start : start + POWER_CHUNK_ENTRIES])
        rows = min(max(POWER_CHUNK_ENTRIES // z.size, 1), top)
        block = np.cumprod(np.broadcast_to(z, (rows, z.size)), axis=0)
        step = block[-1].copy()
        sums = [block.sum(axis=1)]
        for _ in range(rows, top, rows):
            block *= step
            sums.append(block.sum(axis=1))
        power += np.concatenate(sums)[:top]
    return power


def _legendre(degree: int, u: np.ndarray) -> np.ndarray:
    """Legendre polynomial ``P_degree(u)``.

    ``scipy.special`` is imported here, on first use, so that histogram and
    trigonometric work never loads scipy.
    """
    from scipy.special import eval_legendre

    return eval_legendre(degree, u)


@lru_cache(maxsize=None)
def _legendre_sup_ratio(degree_bound: int) -> float:
    """Numerical sup of ``sum_k (2k+1) P_k(u)^2 / r`` over u in [-1, 1].

    This is the squared sup-norm constant of the per-piece Legendre system;
    the maximum sits at the endpoints where every P_k equals 1.
    """
    u = np.linspace(-1.0, 1.0, 2001)
    total = np.zeros_like(u)
    for k in range(degree_bound):
        total += (2 * k + 1) * _legendre(k, u) ** 2
    return float(np.max(total) / degree_bound)


def _natural_legendre(x: np.ndarray, pieces: int, degree_bound: int) -> np.ndarray:
    """Per-piece Legendre system ``sqrt(pieces) sqrt(2k+1) P_k(u)`` at ``x``.

    ``u`` is the affine map of each piece onto [-1, 1]; rows run piece-major,
    so the shape is ``(pieces * degree_bound, len(x))``.
    """
    x = np.asarray(x, dtype=float)
    piece = _cells(x, pieces)
    u = 2.0 * (x * pieces - piece) - 1.0
    out = np.zeros((pieces * degree_bound, x.size))
    cols = np.arange(x.size)
    root = math.sqrt(pieces)
    for k in range(degree_bound):
        out[piece * degree_bound + k, cols] = root * math.sqrt(2 * k + 1) * _legendre(k, u)
    return out


class PiecewisePolynomialModel(Model):
    """Regular piecewise polynomials of degree < ``degree_bound``, one chain level.

    Its basis is the first ``pieces * degree_bound`` functions of
    ``chain``'s nested system.  Without a chain the model is the one-level
    chain ``(pieces,)``, whose functions are the per-piece shifted Legendre
    polynomials ``sqrt(pieces) sqrt(2k+1) P_k(u)`` with ``u`` the affine map
    of the piece onto [-1, 1], indexed piece-major.
    """

    def __init__(self, pieces: int, degree_bound: int, chain: _PolynomialChain | None = None):
        params = {"pieces": pieces, "degree_bound": degree_bound}
        if chain is None:
            chain = _PolynomialChain((pieces,), degree_bound)
        else:
            params["chain"] = list(chain.piece_counts)
        if pieces not in chain.piece_counts or degree_bound != chain.degree_bound:
            raise ValueError(f"{pieces}x{degree_bound} is not a level of the chain {chain.piece_counts}")
        self.chain = chain
        self.pieces = int(pieces)
        self.degree_bound = int(degree_bound)
        c1 = math.sqrt(_legendre_sup_ratio(self.degree_bound))
        super().__init__(pieces * degree_bound, c1, f"poly-{pieces}x{degree_bound}", params)

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        return self.chain.matrix(x, self.dim)

    def breakpoints(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.pieces + 1)

    def shares_prefix_with(self, top: Model) -> bool:
        return (
            isinstance(top, PiecewisePolynomialModel)
            and top.chain.piece_counts == self.chain.piece_counts
            and top.degree_bound == self.degree_bound
            and self.dim <= top.dim
        )


def _validate_divisor_chain(values: Sequence[int], what: str) -> tuple[int, ...]:
    vals = tuple(int(v) for v in values)
    if not vals:
        raise ValueError(f"empty {what} chain")
    if any(v < 1 for v in vals):
        raise ValueError(f"{what} counts must be positive")
    limit = np.iinfo(np.intp).max  # cells and pieces are indexed with np.intp
    if max(vals) > limit:
        raise ValueError(f"{what} count {max(vals)} exceeds the largest array index {limit}")
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
        # Contrast l = 1..r-1 of helmert_contrasts(r) is h_l on sub-cells 0..l-1,
        # -l h_l on sub-cell l and 0 after it, with h_l = 1/sqrt(l(l+1)).
        self._levels = []
        for prev, cur in zip(self.dims[:-1], self.dims[1:]):
            l = np.arange(1.0, cur // prev)
            h = 1.0 / np.sqrt(l * (l + 1.0))
            self._levels.append((prev, cur, l, h, math.sqrt(cur) * h, cur * h * h))

    def matrix(self, x: np.ndarray, dim: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cols = np.arange(x.size)
        out = np.zeros((dim, x.size))
        first = self.dims[0]
        out[_cells(x, first), cols] = math.sqrt(first)
        offset = first
        for prev, cur, _, h, _, _ in self._levels:
            if offset >= dim:
                break
            ratio = cur // prev
            fine = _cells(x, cur)
            coarse = fine // ratio
            within = fine - coarse * ratio
            scale = math.sqrt(cur)
            for l, h_l in zip(range(1, ratio), h):
                rows = offset + coarse * (ratio - 1) + l - 1
                out[rows, cols] = scale * np.where(within < l, h_l, np.where(within == l, -l * h_l, 0.0))
            offset += cur - prev
        return out

    def sums(self, x: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Sums of the first ``dim`` functions and of their squares over ``x``.

        Every function is constant on the cells of its level, so the sums
        are linear in that level's cell counts: one ``bincount`` per level,
        on the same cells as :meth:`matrix`, and no basis matrix.
        """
        first = self.dims[0]
        counts = np.bincount(_cells(x, first), minlength=first).astype(float)
        sums, squares = [math.sqrt(first) * counts], [first * counts]
        offset = first
        for prev, cur, l, _, sum_scale, square_scale in self._levels:
            if offset >= dim:
                break
            # integer-valued floats: every step before the scaling is exact
            counts = np.bincount(_cells(x, cur), minlength=cur).astype(float).reshape(prev, cur // prev)
            below = np.cumsum(counts[:, :-1], axis=1)  # sub-cells 0..l-1 of each coarse cell
            at = l * counts[:, 1:]  # l times sub-cell l
            sums.append((sum_scale * (below - at)).ravel())
            squares.append((square_scale * (below + l * at)).ravel())
            offset += cur - prev
        return np.concatenate(sums), np.concatenate(squares)


class _PolynomialChain:
    """Nested orthonormal system for a divisor chain of polynomial spaces.

    Functions are represented by their coefficients in the natural basis of
    the finest space.  Each coarser space embeds exactly (Gauss quadrature of
    sufficient order).  The orthogonal complement between consecutive levels
    is the QR factor, with ``diag(R) > 0``, of the natural functions of every
    sub-piece but the last one of each coarse piece, projected off the
    coarser space: those functions and the coarser space span the finer one.
    The sign convention makes the factor unique, so the basis itself, not
    only its span, is fixed by the chain up to rounding.
    """

    def __init__(self, piece_counts: Sequence[int], degree_bound: int):
        self.piece_counts = _validate_divisor_chain(piece_counts, "piece")
        self.degree_bound = int(degree_bound)
        if self.degree_bound < 1:
            raise ValueError("degree bound must be >= 1")
        self.transform = self._build_transform()

    def _build_transform(self) -> np.ndarray:
        top, r = self.piece_counts[-1], self.degree_bound
        if len(self.piece_counts) == 1:
            return np.eye(top * r)  # a one-level chain is the natural system itself
        x, w = piecewise_nodes(np.linspace(0.0, 1.0, top + 1), max(r, 2))
        weighted_top = _natural_legendre(x, top, r) * w
        q = np.zeros((top * r, top * r))
        filled = 0
        coarse = 0
        for pieces in self.piece_counts:
            embed = weighted_top @ _natural_legendre(x, pieces, r).T
            if filled == 0:
                block = embed
            else:
                ratio = pieces // coarse
                prev = q[:, :filled]
                block = embed[:, (np.arange(pieces * r) // r) % ratio != ratio - 1]
                # The selected functions are ill-conditioned at high degree
                # (condition 1.6e7 for 1 -> 8 pieces of degree < 6), and R^-1
                # amplifies what rounding leaves of the coarser space; a second
                # pass on the orthonormal factor removes it ("twice is enough").
                for _ in range(2):
                    block -= prev @ (prev.T @ block)
                    block, upper = np.linalg.qr(block)
                    block *= np.sign(np.diag(upper))
            q[:, filled : filled + block.shape[1]] = block
            filled += block.shape[1]
            coarse = pieces
        return q

    def matrix(self, x: np.ndarray, dim: int) -> np.ndarray:
        natural = _natural_legendre(x, self.piece_counts[-1], self.degree_bound)
        return self.transform[:, :dim].T @ natural


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
    return ModelCollection([HistogramModel(d, chain) for d in chain.dims], c_m=c_m)


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
        [PiecewisePolynomialModel(p, chain.degree_bound, chain) for p in chain.piece_counts],
        c_m=c_m,
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


def log_ratio(numerator: float, beta: float) -> float:
    """``ln(numerator / beta)``, finite even where the ratio overflows.

    For beta below about 1e-305 the ratio is infinite, its log is not.
    """
    ratio = numerator / beta
    if ratio == math.inf:
        return math.log(numerator) - math.log(beta)
    return math.log(ratio)


def check_dimension_growth(collection: ModelCollection, n: int, beta: float) -> GrowthReport:
    """Check ``2 sqrt(d_top) ln(6 N / beta) / n <= c_m`` for the collection."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    d_top = collection.top.dim
    value = 2.0 * math.sqrt(d_top) * log_ratio(6.0 * collection.cardinality, beta) / n
    return GrowthReport(value=value, bound=collection.c_m, holds=value <= collection.c_m)
