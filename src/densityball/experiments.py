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
made, and the rest runs as array operations.  A block of replications is one
draw group of :class:`densityball.weights.CellWeightDrawer`: as many as keep
their weight draws, the per-cell sums of those draws and their sample points
within ``2**17`` values each, at most ``2**10``.  Sample validation, cell
indices, cell counts, exact errors and closed forms run once per block.  The
streams of a run of whole blocks, at most ``2**10`` replications, are seeded
in one vectorised pass (:func:`densityball.weights.replication_seed_words`).
The drawer draws a block's weights in draw blocks of up to ``2**17``
entries: all the draws of its replications when several fit, else a slice
of one replication's draws; per-cell weight sums and reweighted statistics
run once per draw block.  The floor is then the draws and their aggregation.

``coverage_experiment`` needs of each replication only the count of its
statistics strictly below its exact error (alpha hits when at most
``rank - 1`` are), so it counts them as each draw block arrives and stops
drawing a replication once its count decides every alpha
(:func:`_count_below`); each replication has its own stream, so the skipped
draws move no other.  At the README configuration with 12 replications and
the README alpha grid, an op draws about 86 of its 96 draw blocks (85.6 over
seeds 1-40).  ``normalized_difference_experiment`` draws every weight, as
its mean needs all of them.  A replication's
integer draws are the values ``rng.integers`` would return, made from one
``random_raw`` call per replication and block by numpy's bounded-integer
rule as array passes (:meth:`densityball.weights.CellWeightDrawer._draw`
states the rule and when it applies); timed alone they cost about 3 ns
per index, against about 4 ns for ``integers``, which also takes a fresh
array per call, and the per-cell sums cost a little more.

When the drawer takes one replication per draw group (``group == 1``; at
the README ``coverage`` configuration one replication's draws fill a group
by themselves, ``2 n n_draws > 2**17``, so every draw group holds more than
``2**16`` entries), the blocks run on ``min(usable CPUs, 2, blocks)``
threads (:func:`_usable_cpus`, ``_MAX_THREADS``), the calling one included,
each with its own drawer.  At numpy 2.4 every kernel of a draw block
(``random_raw``, ``multiply``, ``take``, ``add``, ``bincount``, ``einsum``)
releases the GIL but ``bincount``'s min/max pass; what bounds the speed-up
is that pass, the host's free CPUs and the Python work of each block, which
runs one thread at a time (on a 2-vCPU host two busy processes finished
only 1.3-1.6x faster than one after the other), while each thread adds its
own drawer (about 2.2 MB of peak RSS).  Each numpy call hands the GIL back
and forth, so draw blocks take up to ``2**17`` entries: a ``coverage`` op
at the README configuration with 12 replications made 260-300 voluntary
context switches on two threads, against 530-700 with ``2**16``-entry
blocks and none on one thread (``getrusage``, 2-vCPU host).  Threads take
the next block from one counter, which seeds each run of blocks as its
first block is taken, and reduce it where it ran (hits per alpha,
or the per-replication differences); the results are combined in block
order, so every output is bit-identical for any CPU count.  Smaller draws
(the ``simulate-pw`` configuration) stay on the calling thread, where the
GIL hand-offs would cost more than they gain.  On the threaded path the
oracle's ``sample_points`` is called from several threads at once, so it
must be thread-safe.  If a block raises, the other threads stop at their next
block, and the error is re-raised once all are joined.  Memory stays
O(threads * chunk * (1 + dm / n) + n + nb), and the true coefficients are
computed once per experiment, in O(dm) time and memory, from the cell
masses (:meth:`~densityball.basis.HistogramModel.map_cells`).  The integer
draws are the ones the per-point weights would take, so the seeded stream is
that of the per-point weights and reweighted statistic that the tests keep as
references (``tests/reference.py``).
:func:`~densityball.estimators.project` takes a histogram's coefficients
from the same integer counts, so the exact error here equals
``projection_error_sq`` bit for bit without any compensated summation.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from ._checks import real, whole
from .basis import HistogramModel
from .oracle import DensityOracle
from .weights import MAX_BLOCK_SAMPLES, CellWeightDrawer, WeightKind, WeightScheme, make_scheme
from .weights import _seeded_rngs, replication_seed_words

DEFAULT_SEED = 4
# Weight draws per replication at most: one replication's float64 statistics,
# which normalized_difference_experiment holds as one array, must stay within
# the byte index range; coverage_experiment holds none, and takes the same counts.
MAX_DRAWS = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class NormalizedDifferenceResult:
    """Per-replication normalized differences, Monte Carlo vs closed form."""

    monte_carlo: np.ndarray
    closed_form: np.ndarray

    def summary(self) -> dict[str, tuple[float, float, float, float]]:
        """(mean, sd, min, max) per column, keyed by column name."""
        out = {}
        for name, col in (("monte_carlo", self.monte_carlo), ("closed_form", self.closed_form)):
            sd = float(np.std(col, ddof=1)) if col.size > 1 else 0.0
            out[name] = (float(np.mean(col)), sd, float(np.min(col)), float(np.max(col)))
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
    Efron ``cell_weights`` are overwritten by their deviations ``A_r - c``.
    """
    n, d = scheme.n, counts.shape[-1]
    if scheme.kind is WeightKind.EFRON_MULTINOMIAL:
        # mean(W) = 1 exactly: integer sums give integer deviations, squared and summed exactly;
        # they overwrite the sums, so no (..., batch, d) temporary is made
        dev = np.subtract(cell_weights, counts[..., None, :], out=cell_weights)
    else:
        dev = cell_weights.sum(axis=-1, keepdims=True) / n * counts[..., None, :]
        np.subtract(cell_weights, dev, out=dev)  # one (..., batch, d) temporary, not two
    rows = dev.reshape(-1, d)
    return (scheme.normalizer * (d / (n * n)) * np.einsum("ij,ij->i", rows, rows)).reshape(dev.shape[:-1])


def _cell_counts(cells: np.ndarray, n_cells: int) -> np.ndarray:
    """Points per cell of each row of ``cells``, shape ``(rows, n_cells)``, by one ``bincount`` of shifted rows."""
    rows = cells.shape[0]
    shifted = cells + n_cells * np.arange(rows)[:, None]
    return np.bincount(shifted.ravel(), minlength=rows * n_cells).reshape(rows, n_cells)


def order_statistic_rank(level: float, count: int) -> int:
    """Rank ``ceil(level * count)`` in 1..count, robust to float fuzz."""
    level, count = real(level, "level"), whole(count, "count")
    if count < 1:
        raise ValueError(f"need at least one order statistic, got count {count}")
    t = min(max(level, 0.0), 1.0) * count  # clamped as the rank is, so that 1e308 * count cannot overflow
    nearest = round(t)
    if abs(t - nearest) < 1e-9:
        t = nearest
    return min(max(int(math.ceil(t)), 1), count)


def _check_counts(n_draws: int, reps: int) -> tuple[int, int]:
    """``n_draws`` and ``reps`` as ints: whole, positive, and at most ``MAX_DRAWS`` draws and ``2**32`` replications."""
    n_draws, reps = whole(n_draws, "n_draws"), whole(reps, "reps", low=1)
    if n_draws < 1:
        raise ValueError("need at least one weight draw")
    if n_draws > MAX_DRAWS:
        raise ValueError(f"at most {MAX_DRAWS} weight draws per replication, got {n_draws}")
    if reps > 2**32:  # a replication's stream key is one 32-bit word
        raise ValueError("at most 2**32 replications")
    return n_draws, reps


def _count_below(stat_blocks, errors: np.ndarray, thresholds: list[int], n_draws: int) -> np.ndarray:
    """Statistics strictly below ``errors[a]`` in row ``a``, counted until every hit is decided.

    ``stat_blocks`` yields blocks of shape ``(len(errors), rows)`` that
    cover draws ``0 .. n_draws - 1`` of each row in order; one row may span
    several blocks, several rows come in one block that covers all their
    draws.  ``error <= sort(stats)[t]`` exactly when at most ``t``
    statistics lie strictly below ``error`` (one equal to it is not).
    After ``end`` draws with ``b`` of them below, the final count lies in
    ``[b, b + n_draws - end]``, so once no ``t`` of the sorted
    ``thresholds`` lies in ``[b, b + n_draws - end)``, the count compares
    with every ``t`` as the final one would, and no further block is taken.
    """
    below, end = np.zeros(len(errors), dtype=np.intp), 0
    for stats in stat_blocks:
        below += np.count_nonzero(stats < errors[:, None], axis=1)
        end += stats.shape[1]
        b = int(below[0])  # a block of several rows is their only one: end == n_draws
        i = bisect.bisect_left(thresholds, b)
        if i == len(thresholds) or thresholds[i] >= b + n_draws - end:
            break
    return below


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
    iterator over ``tasks`` (so a generator makes each task as it is taken,
    on one thread at a time) and puts the result in the task's slot, so
    results come back in task order.  When any thread raises (an interrupt
    of the caller included), the others stop at their next task; every
    thread is joined before the first exception is re-raised.
    """
    results = {}
    pending = enumerate(tasks)
    lock = threading.Lock()
    errors = []

    def run(own):
        try:
            own = new_state() if own is None else own
            while not errors:
                with lock:
                    task = next(pending, None)
                if task is None:
                    return
                results[task[0]] = work(own, task[1])
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
    return [results[i] for i in range(len(results))]


def _replication_blocks(
    oracle: DensityOracle, scheme: WeightScheme, dim: int, n_draws: int, reps: int, seed: int, reduce
) -> list:
    """``reduce(counts, blocks)`` of each block of consecutive replications, in block order.

    A block is one draw group of the drawer, ``drawer.group`` replications
    (the last one may be short); its cell counts have shape ``(g, dim)``,
    and ``blocks`` is the drawer's :meth:`CellWeightDrawer.blocks` over its
    replications, whose weight sums are drawn as ``reduce`` takes them.  Per
    replication only its sample and (inside :class:`CellWeightDrawer`) its
    weight draws are made; the streams of a run of whole blocks, at most
    ``MAX_BLOCK_SAMPLES`` replications and so 32 KiB of state words, are
    seeded in one vectorised pass as its first block is taken, and the rest
    is one array operation per block or per draw block of the drawer.

    When the drawer takes one replication per draw group
    (``drawer.group == 1``, as when ``2 n n_draws > 2**17`` and every draw
    group holds more than half a chunk, whose passes release the GIL), the
    blocks run on ``min(usable CPUs, _MAX_THREADS, blocks)`` threads, each
    with its own drawer.  Smaller draws hand the GIL back and forth for less
    than they gain, so they stay on the calling thread.  Each block's stream
    and reduction are the same on any thread, so the results are too.
    """
    n = scheme.n
    model = HistogramModel(dim)
    dim = model.dim  # an int, also for a whole float such as 4.0
    drawer = CellWeightDrawer(scheme, dim, n_draws)
    group = drawer.group
    run = MAX_BLOCK_SAMPLES // group * group

    def seeded_blocks():
        for first in range(0, reps, run):
            words = replication_seed_words(seed, range(first, min(first + run, reps)))
            for offset in range(0, len(words), group):
                yield first + offset, words[offset : offset + group]

    def block(drawer, task):
        first, words = task
        rngs = _seeded_rngs(seed, range(first, first + len(words)), words)
        points = np.stack([oracle.sample_points(n, rng) for rng in rngs])
        cells = model.cell_index(points)
        counts = _cell_counts(cells, dim)
        return reduce(counts, drawer.blocks(rngs, cells, counts))

    threads = min(_usable_cpus(), _MAX_THREADS, reps) if group == 1 else 1
    return _map_in_threads(block, seeded_blocks(), threads, drawer, lambda: CellWeightDrawer(scheme, dim, n_draws))


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
    n_draws, reps = _check_counts(n_draws, reps)
    scheme = make_scheme(kind, n)
    true = oracle.true_coefficients(HistogramModel(dim))
    scale = n / math.sqrt(dim)

    def differences(counts, blocks):
        # the mean needs every draw: one row per replication, reduced as one array
        stats = np.empty((len(counts), n_draws))
        for start, sums in blocks:
            stats[:, start : start + sums.shape[1]] = cell_resampling_statistics(counts, sums, scheme)
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
    statistics; rows come back as ``(alpha, frequency)`` in alpha order.  A
    replication's draws stop once its count below the error decides every
    alpha (:func:`_count_below`), which leaves the table unchanged.
    """
    alphas = sorted(real(a, "alpha") for a in alphas)
    if not alphas:
        raise ValueError("need at least one alpha level")
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise ValueError("alpha levels must lie in (0, 1)")
    n_draws, reps = _check_counts(n_draws, reps)
    scheme = make_scheme(kind, n)
    true = oracle.true_coefficients(HistogramModel(dim))
    # alpha hits when at most rank - 1 statistics lie strictly below the error
    most_below = np.array([order_statistic_rank(a, n_draws) - 1 for a in alphas])
    thresholds = sorted(set(most_below.tolist()))

    def block_hits(counts, blocks):
        stats = (cell_resampling_statistics(counts, sums, scheme) for _, sums in blocks)
        below = _count_below(stats, cell_error_sq(counts, true), thresholds, n_draws)
        return np.count_nonzero(below[:, None] <= most_below, axis=0)

    hits = sum(_replication_blocks(oracle, scheme, dim, n_draws, reps, seed, block_hits))
    return [(a, float(h / reps)) for a, h in zip(alphas, hits)]
