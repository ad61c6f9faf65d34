"""Orthonormal function systems on [0, 1] and nested collections of them.

Three families are provided:

* regular histograms -- scaled indicators of a regular partition,
* trigonometric spaces -- the constant plus cosine/sine pairs,
* regular piecewise polynomials -- shifted Legendre polynomials per piece.

Every space satisfies the sup-norm control ``||t||_inf <= c1 sqrt(dim) ||t||``
with a family constant ``c1`` (1 for histograms and trigonometric systems,
``sqrt(degree_bound)`` for piecewise polynomials).

A :class:`ModelCollection` chains nested spaces behind a single orthonormal
system, ordered so that the first ``dim`` indices of the top system span the
member of that dimension.  A histogram or piecewise-polynomial model is its
own ``levels``: a divisor chain of grids that ends at its own count, and
``(count,)`` for a standalone model, whose system is the natural one; a
polynomial model refines in prime steps.  It nests in a model of its family
whose levels start with its own.  Each later
level adds, per coarse cell or piece, one local block spanning the
complement of the coarse space in its refinements: closed-form Helmert
contrasts for histograms, and for piecewise polynomials an orthonormal block
of coefficients on the sub-pieces' Legendre polynomials, the same for every
coarse piece; both are built on first use.  Trigonometric spaces are nested
in their natural ordering already.  Every family sums its basis over a
sample from sufficient statistics (cell counts, per-piece Legendre moments,
power sums), level by level, so that a member's sums are bit for bit a
prefix of the top's.  Every family refuses points outside [0, 1], NaN
included, on entry to ``basis_matrix`` and ``basis_sums``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._checks import real, whole
from ._quadrature import piecewise_nodes

# Basis entries evaluated per chunk of points by unit_ball_sup_norm, and
# natural-function products per chunk by the piecewise-polynomial sums: memory
# stays O(CHUNK_ENTRIES) whatever the number of points, instead of a dense
# (dim, n) matrix.
CHUNK_ENTRIES = 2**20
# Complex powers per multiply in FourierModel.basis_sums: a cache-sized block
# of points, or of several consecutive powers of a few points.
POWER_CHUNK_ENTRIES = 2**14
# Cells and pieces are indexed with np.intp, so no count may exceed this.
_INDEX_LIMIT = np.iinfo(np.intp).max
# Models per Sobolev collection at most: building one costs about 2.8 us and
# 280 B, so 2**20 of them take about 3 s and 280 MB.
MAX_SOBOLEV_MODELS = 2**20
# Trial divisors of a polynomial refinement ratio stay below this, so a huge
# prime ratio costs at most this many divisions; a ratio left unsplit is then
# at least 2**32, and its (ratio r)^2 block could never be built anyway.
_PRIME_SEARCH_LIMIT = 2**16


class Model:
    """A finite-dimensional orthonormal function system on [0, 1].

    Subclasses fix the family and provide vectorized evaluation via
    :meth:`basis_matrix`.  Instances are immutable after construction, but
    for level data cached on first use, and safe to share across threads.
    """

    def __init__(self, dim: int, c1: float, label: str):
        self.dim, self.c1, self.label = whole(dim, "model dimension", low=1), real(c1, "c1"), str(label)

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        """Evaluate all basis functions at ``x``; shape ``(dim, len(x))``."""
        raise NotImplementedError

    def basis_sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``S_l = sum_i psi_l(x_i)`` and ``Q_l = sum_i psi_l(x_i)^2`` for every index ``l``.

        Every family computes them from sufficient statistics of ``x``, with
        no basis matrix, so that a member's sums are bit for bit the leading
        entries of the top model's.
        """
        raise NotImplementedError

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


def check_unit_interval(points) -> np.ndarray:
    """``points`` as a float array, refused with a ``ValueError`` outside [0, 1], NaN included.

    A cell index of a point outside [0, 1] would wrap or clip to a wrong
    cell, so every family checks its points on entry.
    """
    points = np.asarray(points, dtype=float)
    if not np.all((points >= 0.0) & (points <= 1.0)):
        raise ValueError("sample points must lie in [0, 1]")
    return points


def _cells(x: np.ndarray, m: int) -> np.ndarray:
    """Cell ``min(floor(m x), m - 1)`` of each point on the regular ``m``-grid."""
    return np.minimum((x * m).astype(int), m - 1)


class HistogramModel(Model):
    """The regular histogram space with ``cells`` cells, the last of its ``levels``.

    ``levels`` is the divisor chain ``chain`` of cell counts up to
    ``cells``, or ``(cells,)`` without a chain.  The first ``m = levels[0]``
    functions are the scaled indicators ``sqrt(m) 1_[k/m,(k+1)/m)`` of the
    coarsest grid, ``k = 0..m-1``; every later level contributes, per coarse
    cell, the Helmert contrasts of its refined sub-cells, which span the
    orthogonal complement of the coarser space.  The last cell is closed at
    1 so that the pointwise identity ``sum_l psi_l(x)^2 = dim`` holds on all
    of [0, 1].  :meth:`map_cells` is the one map of per-level cell values
    to the functions: cell counts give the sums, cell masses the true
    coefficients.
    """

    def __init__(self, cells: int, chain: Sequence[int] | None = None):
        self.levels = _chain_levels(cells, chain, "histogram")
        self.cells = self.levels[-1]
        super().__init__(self.cells, 1.0, f"histogram-{self.cells}")

    @cached_property
    def _contrasts(self) -> list[tuple]:
        """``(prev, cur, l, h, sqrt(cur) h, cur h^2)`` for each later level, ``prev`` cells refined to ``cur``.

        The Helmert contrast l = 1..r-1 of r sub-cells is h_l on sub-cells
        0..l-1, -l h_l on sub-cell l and 0 after it, with h_l = 1/sqrt(l(l+1)).
        """
        levels = []
        for prev, cur in zip(self.levels[:-1], self.levels[1:]):
            l = np.arange(1.0, cur // prev)
            h = 1.0 / np.sqrt(l * (l + 1.0))
            levels.append((prev, cur, l, h, math.sqrt(cur) * h, cur * h * h))
        return levels

    def cell_index(self, x: np.ndarray) -> np.ndarray:
        """Index ``k`` of the cell holding each point; 1 is in the last cell."""
        return _cells(check_unit_interval(x), self.cells)

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        x = check_unit_interval(x)
        cols = np.arange(x.size)
        out = np.zeros((self.dim, x.size))
        first = self.levels[0]
        out[_cells(x, first), cols] = math.sqrt(first)
        # a level's contrasts follow the prev functions of the coarser levels
        for prev, cur, _, h, _, _ in self._contrasts:
            ratio = cur // prev
            coarse, within = np.divmod(_cells(x, cur), ratio)
            scale = math.sqrt(cur)
            for l, h_l in zip(range(1, ratio), h):
                rows = prev + coarse * (ratio - 1) + l - 1
                out[rows, cols] = scale * np.where(within < l, h_l, np.where(within == l, -l * h_l, 0.0))
        return out

    def map_cells(self, values: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """The linear maps of per-level cell values to the functions and to their squares.

        ``values`` holds, per level of ``m`` cells, ``m`` values, one per
        cell.  Every function is constant on the cells of its level, so a
        level's functions are Helmert sums of its values: cell counts give
        :meth:`basis_sums`, and cell masses (first output) the true
        coefficients, in O(dim) work and memory.
        """
        first = np.asarray(values[0], dtype=float)
        sums, squares = [math.sqrt(self.levels[0]) * first], [self.levels[0] * first]
        for (prev, cur, l, _, sum_scale, square_scale), level in zip(self._contrasts, values[1:]):
            # on integer-valued counts every step before the scaling is exact
            level = np.asarray(level, dtype=float).reshape(prev, cur // prev)
            below = np.cumsum(level[:, :-1], axis=1)  # sub-cells 0..l-1 of each coarse cell
            at = l * level[:, 1:]  # l times sub-cell l
            sums.append((sum_scale * (below - at)).ravel())
            squares.append((square_scale * (below + l * at)).ravel())
        return np.concatenate(sums), np.concatenate(squares)

    def basis_sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sums of the functions and of their squares over ``x``.

        :meth:`map_cells` of one ``bincount`` per level, on the same cells
        as :meth:`basis_matrix`, and no basis matrix.
        """
        x = check_unit_interval(x)
        return self.map_cells([np.bincount(_cells(x, m), minlength=m) for m in self.levels])

    def breakpoints(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.cells + 1)

    def shares_prefix_with(self, top: Model) -> bool:
        return isinstance(top, HistogramModel) and top.levels[: len(self.levels)] == self.levels


class FourierModel(Model):
    """The constant plus ``sqrt(2) cos(2 pi j x)`` / ``sqrt(2) sin(2 pi j x)``.

    Index order is ``[1, cos_1, sin_1, cos_2, sin_2, ...]`` up to frequency
    ``cutoff``, so dimension is ``2 cutoff + 1`` and smaller trigonometric
    models are literal prefixes of larger ones.
    """

    def __init__(self, cutoff: int):
        self.cutoff = whole(cutoff, "frequency cutoff", low=0)
        dim = 2 * self.cutoff + 1
        super().__init__(dim, 1.0, f"fourier-{dim}")

    @classmethod
    def from_dim(cls, dim: int) -> "FourierModel":
        dim = whole(dim, "trigonometric dimension")
        if dim < 1 or dim % 2 == 0:
            raise ValueError("trigonometric dimension must be odd and positive")
        return cls((dim - 1) // 2)

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        x = check_unit_interval(x)
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
        x = check_unit_interval(x)
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
        rows = max(POWER_CHUNK_ENTRIES // z.size, 1)  # not capped by top: each power's rounding depends on rows
        block = np.cumprod(np.broadcast_to(z, (rows, z.size)), axis=0)
        step = block[-1].copy()
        sums = [block.sum(axis=1)]
        for _ in range(rows, top, rows):
            block *= step
            sums.append(block.sum(axis=1))
        power += np.concatenate(sums)[:top]
    return power


def _legendre_table(u: np.ndarray, count: int) -> np.ndarray:
    """Legendre polynomials ``P_0(u) .. P_{count-1}(u)``; shape ``(count, *u.shape)``.

    One pass of the recurrence ``(k+1) P_{k+1} = (2k+1) u P_k - k P_{k-1}``.
    """
    table = np.zeros((count, *np.shape(u)))
    table[0] = 1.0
    for k in range(count - 1):  # at k = 0, table[-1] is still zero: P_{-1} = 0
        table[k + 1] = ((2 * k + 1) * u * table[k] - k * table[k - 1]) / (k + 1)
    return table


def _legendre_values(x: np.ndarray, pieces: int, degree_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The piece of each point and its natural functions ``sqrt(pieces) sqrt(2k+1) P_k(u)``.

    ``u`` is the affine map of the piece onto [-1, 1]; the values have shape
    ``(degree_bound, len(x))``, row ``k`` for degree ``k``.
    """
    piece = _cells(x, pieces)
    u = 2.0 * (x * pieces - piece) - 1.0
    scale = math.sqrt(pieces) * np.sqrt(2.0 * np.arange(degree_bound) + 1.0)
    return piece, scale[:, None] * _legendre_table(u, degree_bound)


class PiecewisePolynomialModel(Model):
    """Regular piecewise polynomials of degree < ``degree_bound``, the last of its ``levels``.

    ``levels`` is the divisor chain ``chain`` of piece counts up to
    ``pieces``, or ``(pieces,)`` without a chain, with every refinement
    split into steps of its ratio's prime factors, smallest first: the chain
    (1, 8) has the levels (1, 2, 4, 8), a multiwavelet basis in the style of
    Alpert (1993), and (1, 6) has (1, 2, 6).  The natural functions of a
    grid of ``p`` pieces are the per-piece shifted Legendre polynomials
    ``sqrt(p) sqrt(2k+1) P_k(u)`` with ``u`` the affine map of the piece onto
    [-1, 1], indexed piece-major.  A level refines each of its coarse pieces
    into ``ratio`` sub-pieces, and its functions are, per coarse piece, the
    columns of its entry of :attr:`blocks` as coefficients on the natural
    functions of those sub-pieces (rows sub-piece-major), the same block for
    every coarse piece.  The first level is ``levels[0]`` groups of one piece
    with ``block = eye(r)``, its natural system itself, so a model without a
    chain has exactly the natural functions.
    """

    def __init__(self, pieces: int, degree_bound: int, chain: Sequence[int] | None = None):
        self.levels = _prime_steps(_chain_levels(pieces, chain, "piece"))
        self.degree_bound = r = whole(degree_bound, "degree bound", low=1)
        self.pieces = self.levels[-1]
        # sum_l psi_l(x)^2 = pieces sum_k (2k+1) P_k(u)^2 peaks at u = +-1, where
        # every P_k^2 is 1, at pieces r^2 = r dim, so c1 = sqrt(r)
        super().__init__(self.pieces * r, math.sqrt(r), f"poly-{self.pieces}x{r}")

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """One block per level, built on first use: ``eye(r)``, then each refinement's :func:`_complement_block`."""
        r = self.degree_bound
        later = (_complement_block(fine // coarse, r) for coarse, fine in zip(self.levels[:-1], self.levels[1:]))
        return (np.eye(r), *later)

    def map_natural(self, moments: Sequence) -> np.ndarray:
        """The linear map of per-level natural moments through :attr:`blocks`.

        ``moments`` holds, per level of ``p`` pieces, ``p * r`` values
        piece-major, one per natural function.  A level's values, one row per
        coarse piece, times its block are its functions' values: sums over a
        sample give :meth:`basis_sums`, and expectations the true
        coefficients.
        """
        return np.concatenate([(np.reshape(m, (-1, b.shape[0])) @ b).ravel() for m, b in zip(moments, self.blocks)])

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        x = check_unit_interval(x)
        r = self.degree_bound
        out = np.zeros((self.dim, x.size))
        cols = np.arange(x.size)
        offset = 0
        for pieces, block in zip(self.levels, self.blocks):
            piece, values = _legendre_values(x, pieces, r)
            ratio, width = block.shape[0] // r, block.shape[1]
            coarse, sub = np.divmod(piece, ratio)
            blocks = block.reshape(ratio, r, width)
            rows = offset + coarse * width + np.arange(width)[:, None]
            out[rows, cols] = sum(blocks[sub, k].T * values[k] for k in range(r))
            offset += pieces // ratio * width
        return out

    def basis_sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sums of the functions and of their squares over ``x``.

        Each level sums, per piece, the natural functions and their pairwise
        products over its points, and maps them through its block.  The
        points are sorted first, so that a piece's points are one run and
        ``np.add.reduceat`` sums it pairwise; the work is O(n r^2) per level
        and the memory O(CHUNK_ENTRIES) whatever the number of points.
        """
        x = np.sort(check_unit_interval(x))
        r = self.degree_bound
        step = max(CHUNK_ENTRIES // (r * r), 1)
        firsts, squares = [], []
        for pieces, block in zip(self.levels, self.blocks):
            first = np.zeros((pieces, r))
            second = np.zeros((pieces, r, r))
            for start in range(0, x.size, step):
                piece, values = _legendre_values(x[start : start + step], pieces, r)
                runs = np.flatnonzero(np.diff(piece, prepend=-1))
                first[piece[runs]] += np.add.reduceat(values, runs, axis=1).T
                second[piece[runs]] += np.add.reduceat(values[:, None] * values, runs, axis=2).transpose(2, 0, 1)
            ratio = block.shape[0] // r
            blocks = block.reshape(ratio, r, -1)
            firsts.append(first)
            squares.append(np.einsum("cskl,skm,slm->cm", second.reshape(-1, ratio, r, r), blocks, blocks).ravel())
        return self.map_natural(firsts), np.concatenate(squares)

    def breakpoints(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.pieces + 1)

    def shares_prefix_with(self, top: Model) -> bool:
        return (
            isinstance(top, PiecewisePolynomialModel)
            and top.degree_bound == self.degree_bound
            and top.levels[: len(self.levels)] == self.levels
        )


def _complement_block(ratio: int, r: int) -> np.ndarray:
    """The functions a level adds on one coarse piece split into ``ratio`` sub-pieces.

    They are the trailing ``(ratio - 1) r`` columns of the complete QR
    factor of the coarse piece's natural functions, embedded in its
    sub-pieces' ones: they are orthonormal and span the complement of the
    coarse space in the fine one.  The embedding has orthonormal columns, so
    the factor is as well conditioned as can be, and the block moves with
    its inputs by rounding only.
    """
    # one coarse piece, [0, 1], and its sub-pieces: the embedding is the same for every coarse piece
    x, w = piecewise_nodes(np.linspace(0.0, 1.0, ratio + 1), max(r, 2))
    sub = _legendre_values(x, ratio, r)[1].reshape(r, ratio, -1)
    whole = _legendre_values(x, 1, r)[1].reshape(r, ratio, -1)
    embed = np.einsum("asi,bsi,si->sab", sub, whole, w.reshape(ratio, -1)).reshape(ratio * r, r)
    return np.linalg.qr(embed, mode="complete")[0][:, r:]


def _prime_steps(levels: tuple[int, ...]) -> tuple[int, ...]:
    """``levels`` with each refinement split into steps of its ratio's prime factors, smallest first.

    Every complement block is then ``(p r, (p - 1) r)`` for a prime ``p``.
    Trial divisors stay below ``_PRIME_SEARCH_LIMIT``.
    """
    steps = [levels[0]]
    for coarse, fine in zip(levels[:-1], levels[1:]):
        rest, p = fine // coarse, 2
        while p * p <= rest and p < _PRIME_SEARCH_LIMIT:
            if rest % p:
                p += 1
            else:
                steps.append(steps[-1] * p)
                rest //= p
        if rest > 1:
            steps.append(fine)
    return tuple(steps)


def _chain_levels(count: int, chain: Sequence[int] | None, what: str) -> tuple[int, ...]:
    """The divisor chain ``chain`` up to ``count``, or ``(count,)`` without a chain."""
    count = whole(count, f"{what} count", low=1)
    vals = (count,) if chain is None else tuple(whole(c, f"{what} count", low=1) for c in chain)
    if not vals:
        raise ValueError(f"empty {what} chain")
    if max(vals) > _INDEX_LIMIT:
        raise ValueError(f"{what} count {max(vals)} exceeds the largest array index {_INDEX_LIMIT}")
    for a, b in zip(vals, vals[1:]):
        if b <= a:
            raise ValueError(f"{what} chain must be strictly increasing")
        if b % a != 0:
            raise ValueError(f"{what} chain requires each count to divide the next ({a} | {b} fails)")
    if count not in vals:
        raise ValueError(f"{count} is not a level of the chain {vals}")
    return vals[: vals.index(count) + 1]


class ModelCollection:
    """An increasing nested family of models sharing one orthonormal system.

    The last model spans every other one and the member of dimension ``d``
    is exactly the span of the first ``d`` indices of the top system, so
    coefficient vectors of members embed into the top model by zero padding.
    ``c_m`` is the cap used by the dimension-growth check, the same constant
    for every collection, and ``c1`` the largest sup-norm constant of the
    members.
    """

    c_m = 4.0

    def __init__(self, models: Sequence[Model]):
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
        self.models = models
        self.c1 = max(m.c1 for m in models)

    @property
    def top(self) -> Model:
        return self.models[-1]

    def __iter__(self):
        return iter(self.models)

    def __len__(self) -> int:
        return len(self.models)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ModelCollection {[m.label for m in self.models]}>"


def histogram_collection(dims: Sequence[int]) -> ModelCollection:
    """Nested histograms over a divisor chain of cell counts (e.g. dyadic)."""
    chain = _sorted_whole(dims, "histogram count")
    return ModelCollection([HistogramModel(d, chain) for d in chain])


def fourier_collection(dims: Sequence[int]) -> ModelCollection:
    """Nested trigonometric spaces of the given odd dimensions, ``2 j + 1`` for cutoff ``j``."""
    return ModelCollection([FourierModel.from_dim(d) for d in _sorted_whole(dims, "trigonometric dimension")])


def piecewise_polynomial_collection(piece_counts: Sequence[int], degree_bound: int) -> ModelCollection:
    """Nested piecewise-polynomial spaces over a divisor chain of pieces."""
    chain = _sorted_whole(piece_counts, "piece count")
    return ModelCollection([PiecewisePolynomialModel(p, degree_bound, chain) for p in chain])


def _sorted_whole(values: Sequence[int], what: str) -> list[int]:
    """``values`` checked as whole numbers, then sorted: a string among ints cannot be sorted."""
    return sorted(whole(value, what) for value in values)


def fourier_collection_for_sobolev(n: int, gamma: float) -> ModelCollection:
    """Trigonometric collection sized for a Sobolev smoothness ``gamma``.

    The top cutoff is ``floor(min(n**(1/(2 gamma + 1/2)), n^2 / (ln n)^2))``
    and the collection holds one model per cutoff from 1 up to it.  The two
    terms are compared in logs, as ``n^2`` overflows from about ``n =
    1.3e154``; a top dimension beyond the array index range is refused, and
    so is a top cutoff above ``MAX_SOBOLEV_MODELS``, before any model is built.
    """
    n, gamma = whole(n, "n", low=3), real(gamma, "gamma")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    log_n, exponent = math.log(n), 1.0 / (2.0 * gamma + 0.5)
    log_rate, log_cap = exponent * log_n, 2.0 * (log_n - math.log(log_n))
    if min(log_rate, log_cap) >= math.log(np.iinfo(np.intp).max // 2):
        raise ValueError(f"n = {n:g} at gamma = {gamma:g} gives a top dimension beyond the array index range")
    # the smaller term is within the index range, so it evaluates without overflow
    top = max(int(float(n) ** exponent if log_rate <= log_cap else float(n) ** 2 / log_n**2), 1)
    if top > MAX_SOBOLEV_MODELS:
        raise ValueError(
            f"n = {n:g} at gamma = {gamma:g} gives {top} models, more than the {MAX_SOBOLEV_MODELS} a collection holds"
        )
    return fourier_collection(range(3, 2 * top + 2, 2))


# Relative slack of check_sup_norm_control: for c1 = 1 the exact ratio is c1
# up to rounding of the basis values.
SUP_NORM_SLACK = 1e-6


def unit_ball_sup_norm(model: Model) -> float:
    """``b = max_x sqrt(sum_l psi_l(x)^2)``, the sup norm over the unit coefficient ball.

    By Cauchy-Schwarz ``sup_{||a|| <= 1} |sum_l a_l psi_l(x)| = sqrt(sum_l
    psi_l(x)^2)`` at each ``x``.  The maximum is taken over a 4096-point
    grid plus the breakpoints and piece midpoints, whose basis matrix is
    evaluated chunk by chunk.
    """
    bps = model.breakpoints()
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 4096), bps, (bps[:-1] + bps[1:]) / 2.0]))
    step = max(CHUNK_ENTRIES // model.dim, 1)
    top = 0.0
    for start in range(0, xs.size, step):
        psi = model.basis_matrix(xs[start : start + step])
        top = max(top, float(np.max(np.einsum("ij,ij->j", psi, psi))))
    return math.sqrt(top)


@dataclass(frozen=True)
class SupNormReport:
    """Check of the sup-norm control constant of one model."""

    empirical_ratio: float
    holds: bool


def check_sup_norm_control(model: Model) -> SupNormReport:
    """Check ``||t||_inf <= c1 sqrt(dim) ||t||`` for every ``t`` in the model.

    The smallest constant that works is ``unit_ball_sup_norm(model) /
    sqrt(dim)``, reported as ``empirical_ratio``; the control holds when
    that ratio stays below ``c1 (1 + SUP_NORM_SLACK)``.
    """
    ratio = unit_ball_sup_norm(model) / math.sqrt(model.dim)
    return SupNormReport(empirical_ratio=ratio, holds=ratio <= model.c1 * (1.0 + SUP_NORM_SLACK))


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
    n, beta = whole(n, "n", low=2), real(beta, "beta")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    d_top = collection.top.dim
    value = 2.0 * math.sqrt(d_top) * log_ratio(6.0 * len(collection), beta) / n
    return GrowthReport(value=value, bound=collection.c_m, holds=value <= collection.c_m)
