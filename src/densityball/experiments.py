"""Seeded Monte Carlo experiments around the resampling variance estimator.

Two studies ship, both on histogram models:

* ``normalized_difference_experiment`` repeats, for fresh samples, the
  normalized difference ``n (error - estimate) / sqrt(dim)`` between the
  exact squared projection error and the resampling estimate (Monte Carlo
  over weight draws, and closed form as a second column).  Its empirical
  distribution is expected to be stable across sample sizes and dimensions.

* ``coverage_experiment`` checks how often the exact squared projection
  error falls below the empirical alpha-quantile of the reweighted
  statistic's conditional distribution, for a grid of alpha levels; the
  curve should hug the diagonal.

Every replication draws from an independent stream keyed by
``(seed, replication)``, and reductions preserve replication order, so a
fixed seed reproduces results bit for bit regardless of scheduling.

For a regular histogram with ``d`` cells every quantity a replication needs
is a function of the cell counts ``c`` and, per weight draw, of the per-cell
weight sums ``A``: the estimated coefficients are ``sqrt(d) c / n``, the
closed form is ``d (n - sum c^2 / n) / (n (n - 1))``, and the reweighted
statistic is ``normalizer (d / n^2) sum_k (A_k - mean(W) c_k)^2``; with
Efron weights ``mean(W) = 1`` exactly, so ``A - c`` and its square sum are
integers.  Per replication only its sample and its integer weight draws are
made; the streams of a block of replications are seeded in one vectorised
pass (:func:`densityball.weights.replication_rngs`), and the rest runs as
array operations.  A block holds as many replications as keep the per-cell
weight sums of all their draws, and their sample points, within about
``2**16`` values each, at most ``2**10``; sample validation, cell indices, cell counts, exact errors and
closed forms run once per block.
:class:`densityball.weights.CellWeightDrawer` draws its weights in groups of
about ``2**16`` weight entries, each holding the draws of as many whole
replications as fit, or a slice of the draws of one replication when they do
not fit; per-cell weight sums and reweighted statistics run once per group.
The floor is then the draws and their aggregation: at the README
``simulate-pw`` configuration about half the time goes to the integer draws
(one ``integers`` call per replication) and a quarter to their per-cell sums,
and seeding takes about 5%.

When the drawer takes one replication per draw group (``group == 1``; at
the README ``coverage`` configuration one replication's draws fill a group
by themselves, ``2 n n_draws > 2**16``, so every ``integers`` call draws at
least ``2**15`` entries with the GIL released), the blocks run on
``min(usable CPUs, 2, blocks)`` threads, the calling one included, each
with its own drawer.  The usable CPUs are the process's affinity mask where
the OS has one, else ``os.cpu_count()``.  The cap of 2 is the count that
was measured: ``bincount`` and ``einsum`` hold the GIL, which
bounds the speed-up near 1.5x on 2 CPUs, while each thread adds its own
drawer buffers (about 2.4 MB of peak RSS) and GIL hand-offs.  Threads take
the next block from one counter and reduce it where it ran (hits per alpha,
or the per-replication differences); the results are combined in block
order, so every output is bit-identical for any CPU count.  Smaller draws
(the ``simulate-pw`` configuration) stay on the calling thread, where the
GIL hand-offs would cost more than they gain.  On the threaded path the
oracle's ``sample_points`` is called from several threads at once, so it
must be thread-safe.  If a block raises, the other threads stop at their next
block, and the error is re-raised once all are joined.  Memory stays
O(threads * chunk * (1 + dm / n) + n + nb), and the true coefficients are
computed once per experiment.  The integer draws are the ones the per-point
weights would take, so the seeded stream is that of the per-point
estimators of :mod:`densityball.estimators`, which serve as references.
:func:`~densityball.estimators.project` takes a histogram's coefficients
from the same integer counts, so the exact error here equals
``projection_error_sq`` bit for bit without any compensated summation.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .basis import HistogramModel
from .oracle import DensityOracle
from .weights import (
    CellWeightDrawer,
    WeightKind,
    WeightScheme,
    make_scheme,
    replication_rngs,
)

DEFAULT_SEED = 4


@dataclass(frozen=True)
class NormalizedDifferenceResult:
    """Per-replication normalized differences, Monte Carlo vs closed form."""

    monte_carlo: np.ndarray
    closed_form: np.ndarray

    def summary(self) -> dict[str, tuple[float, float]]:
        """(mean, sd, min, max) per column, keyed by column name."""
        out = {}
        for name, col in (("monte_carlo", self.monte_carlo), ("closed_form", self.closed_form)):
            out[name] = (
                float(np.mean(col)),
                float(np.std(col, ddof=1)) if col.size > 1 else 0.0,
                float(np.min(col)),
                float(np.max(col)),
            )
        return out


def cell_error_sq(counts: np.ndarray, true_coefficients: np.ndarray) -> np.ndarray:
    """Squared projection error of a histogram from its cell counts.

    ``counts`` has shape ``(..., d)``, one row per sample.  Each entry equals
    ``projection_error_sq`` on the ``HistogramModel`` with ``d`` cells bit for
    bit: both take the coefficients ``sqrt(d) c_k / n`` from the integer
    counts and reduce with the same dot product (``matmul`` of a row by a
    column, which rounds as ``diff @ diff`` does; ``einsum`` does not).
    """
    diff = math.sqrt(counts.shape[-1]) * counts / counts.sum(axis=-1, keepdims=True) - true_coefficients
    return np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0]


def cell_resampling_variance(counts: np.ndarray) -> np.ndarray:
    """Closed-form resampling variance of a histogram from its cell counts.

    ``d (n - sum_k c_k^2 / n) / (n (n - 1))`` per row of ``counts``, equal to
    ``resampling_variance``; the numerator is exact in integers.
    """
    n, d = counts.sum(axis=-1), counts.shape[-1]
    return d * (n * n - (counts * counts).sum(axis=-1)) / (n * n * (n - 1.0))


def cell_resampling_statistics(
    counts: np.ndarray, cell_weights: np.ndarray, scheme: WeightScheme
) -> np.ndarray:
    """Reweighted statistics of a histogram from per-cell weight sums.

    ``counts`` has shape ``(..., d)`` and ``cell_weights`` shape
    ``(..., batch, d)`` (see :class:`densityball.weights.CellWeightDrawer`);
    entry ``r`` of a sample's row of the result is
    ``normalizer (d / n^2) sum_k (A_rk - mean(W_r) c_k)^2``, equal to
    ``resampling_statistics`` for the per-point weights behind ``A_r``.
    """
    n, d = scheme.n, counts.shape[-1]
    if scheme.kind is WeightKind.EFRON_MULTINOMIAL:
        # mean(W) = 1 exactly: integer sums give integer deviations, squared and summed exactly
        dev = np.subtract(cell_weights, counts[..., None, :])
    else:
        dev = cell_weights.sum(axis=-1, keepdims=True) / n * counts[..., None, :]
        np.subtract(cell_weights, dev, out=dev)  # one (..., batch, d) temporary, not two
    rows = dev.reshape(-1, d)
    return (scheme.normalizer * (d / (n * n)) * np.einsum("ij,ij->i", rows, rows)).reshape(dev.shape[:-1])


def _cell_counts(cells: np.ndarray, n_cells: int) -> np.ndarray:
    """Points per cell of each row of ``cells``, shape ``(rows, n_cells)``.

    Row ``a`` is shifted by ``a * n_cells`` so that one ``bincount`` counts
    every row.
    """
    rows = cells.shape[0]
    shifted = cells + n_cells * np.arange(rows)[:, None]
    return np.bincount(shifted.ravel(), minlength=rows * n_cells).reshape(rows, n_cells)


def order_statistic_rank(level: float, count: int) -> int:
    """Rank ``ceil(level * count)`` in 1..count, robust to float fuzz."""
    if count < 1:
        raise ValueError(f"need at least one order statistic, got count {count}")
    t = level * count
    nearest = round(t)
    if abs(t - nearest) < 1e-9:
        t = nearest
    return min(max(int(math.ceil(t)), 1), count)


def _check_reps(reps: int) -> None:
    if reps < 1:
        raise ValueError("need at least one replication")
    if reps > 2**32:  # a replication's stream key is one 32-bit word
        raise ValueError("at most 2**32 replications")


# threads per experiment at most: the count measured to gain (on 2 CPUs); more
# would add drawer buffers and GIL hand-offs with no wall-time gain shown
_MAX_THREADS = 2


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_in_threads(work, tasks, threads: int, state, new_state) -> list:
    """``[work(state, task) for task in tasks]`` on ``threads`` threads, the caller's included.

    The caller works with ``state``, every other thread with its own
    ``new_state()``; each thread takes the next task from one lock-protected
    iterator and puts the result in the task's slot, so results come back in
    task order.  When any thread raises (an interrupt of the caller
    included), the others stop at their next task; every thread is joined
    before the first exception is re-raised.
    """
    results = [None] * len(tasks)
    pending = iter(range(len(tasks)))
    lock = threading.Lock()
    errors = []

    def run(own):
        try:
            own = new_state() if own is None else own
            while not errors:
                with lock:
                    i = next(pending, None)
                if i is None:
                    return
                results[i] = work(own, tasks[i])
        except BaseException as exc:  # the caller re-raises it
            errors.append(exc)

    helpers = []
    try:
        for _ in range(threads - 1):
            helpers.append(threading.Thread(target=run, args=(None,), name="densityball-replications"))
            helpers[-1].start()
        run(state)
    except BaseException as exc:  # a thread that cannot start, or an interrupt meanwhile
        errors.append(exc)
    for thread in helpers:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:  # an interrupt while waiting stops the others too
                errors.append(exc)
    if errors:
        raise errors[0]
    return results


def _replication_blocks(
    oracle: DensityOracle, scheme: WeightScheme, dim: int, n_draws: int, reps: int, seed: int, reduce
) -> list:
    """``reduce(counts, stats)`` of each block of consecutive replications, in block order.

    A block's cell counts have shape ``(g, dim)`` and its statistics
    ``(g, n_draws)``.  Per replication only its sample and (inside
    :class:`CellWeightDrawer`) its weight draws are made; the generators of
    a block are seeded in one vectorised pass, and the rest is one array
    operation per block or per draw group of the drawer.

    When the drawer takes one replication per draw group
    (``drawer.group == 1``, as when ``2 n n_draws > 2**16`` and
    every ``integers`` call draws at least half a chunk with the GIL
    released), the blocks run on ``min(usable CPUs, _MAX_THREADS, blocks)``
    threads, each with its own drawer.  Smaller draws hand the GIL back and
    forth for less than they gain, so they stay on the calling thread.  Each
    block's stream and reduction are the same on any thread, so the results
    are too.
    """
    n = scheme.n
    model = HistogramModel(dim)
    drawer = CellWeightDrawer(scheme, dim, n_draws)
    firsts = range(0, reps, drawer.samples)

    def block(drawer, first):
        rngs = replication_rngs(seed, range(first, min(first + drawer.samples, reps)))
        points = np.stack([oracle.sample_points(n, rng) for rng in rngs])
        cells = model.cell_index(points)
        counts = _cell_counts(cells, dim)
        stats = np.empty((len(rngs), n_draws))
        for a, start, sums in drawer.blocks(rngs, cells, counts):
            group, rows = sums.shape[:2]
            group_counts = counts[a : a + group]
            stats[a : a + group, start : start + rows] = cell_resampling_statistics(group_counts, sums, scheme)
        return reduce(counts, stats)

    threads = min(_usable_cpus(), _MAX_THREADS, len(firsts)) if drawer.group == 1 else 1
    return _map_in_threads(block, firsts, threads, drawer, lambda: CellWeightDrawer(scheme, dim, n_draws))


def normalized_difference_experiment(
    oracle: DensityOracle,
    n: int,
    dim: int,
    n_draws: int,
    reps: int,
    seed: int = DEFAULT_SEED,
    kind: WeightKind | str = WeightKind.EFRON_MULTINOMIAL,
) -> NormalizedDifferenceResult:
    """Replicate ``n (error - estimate) / sqrt(dim)`` on fresh samples."""
    _check_reps(reps)
    scheme = make_scheme(kind, n)
    true = oracle.true_coefficients(HistogramModel(dim))
    scale = n / math.sqrt(dim)

    def differences(counts, stats):
        error = cell_error_sq(counts, true)
        return scale * (error - stats.mean(axis=1)), scale * (error - cell_resampling_variance(counts))

    mc, cf = zip(*_replication_blocks(oracle, scheme, dim, n_draws, reps, seed, differences))
    return NormalizedDifferenceResult(monte_carlo=np.concatenate(mc), closed_form=np.concatenate(cf))


def coverage_experiment(
    oracle: DensityOracle,
    n: int,
    dim: int,
    n_draws: int,
    reps: int,
    alphas,
    seed: int = DEFAULT_SEED,
    kind: WeightKind | str = WeightKind.EFRON_MULTINOMIAL,
) -> list[tuple[float, float]]:
    """Empirical coverage of the resampled quantile threshold per alpha.

    For each replication the exact squared projection error is compared to
    the order statistic of rank ``ceil(alpha * n_draws)`` of the reweighted
    statistics; rows come back as ``(alpha, frequency)`` in alpha order.
    """
    alphas = sorted(float(a) for a in alphas)
    if not alphas:
        raise ValueError("need at least one alpha level")
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise ValueError("alpha levels must lie in (0, 1)")
    _check_reps(reps)
    scheme = make_scheme(kind, n)
    true = oracle.true_coefficients(HistogramModel(dim))
    ranks = np.array([order_statistic_rank(a, n_draws) for a in alphas])

    def block_hits(counts, stats):
        stats.sort(axis=1)
        return np.sum(cell_error_sq(counts, true)[:, None] <= stats[:, ranks - 1], axis=0)

    hits = sum(_replication_blocks(oracle, scheme, dim, n_draws, reps, seed, block_hits))
    return [(a, float(h / reps)) for a, h in zip(alphas, hits)]
