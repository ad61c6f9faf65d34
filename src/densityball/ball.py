"""Model selection by radius minimization and the resulting confidence ball.

Every model of a collection spans a leading block of the top model's
orthonormal system, so one pass over the sample suffices for the whole
collection: :meth:`~densityball.basis.Model.basis_sums` of the top model
gives the per-coefficient sums ``S_l = sum_i psi_l(X_i)`` and
``Q_l = sum_i psi_l(X_i)^2``, from the top basis evaluated once per point
or, for histograms, from per-level cell counts.  Prefix sums of
``max(Q_l - S_l^2 / n, 0)`` give every closed-form resampling variance
estimate, suffix sums of ``S_l^2 - Q_l`` give every nested-bias
U-statistic, and ``S[:d] / n`` is the projection estimator of the model of
dimension ``d``.  The bounds of all models are then evaluated together; the
ball is centered at the projection estimator of the model with the
smallest radius (ties go to the smallest dimension).  Membership is
evaluated in the coefficient space of the collection's top model, with an
optional quadrature term for candidates that have mass outside the top
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import Model, ModelCollection, check_dimension_growth
from .bounds import BoundConfig, ModelRadius, RadiusReport, bias_bounds, radii, variance_bounds
# resampling_variance stays importable from here for perfbench's traced runs,
# which look it up in this namespace; the ball itself no longer calls it.
from .estimators import Sample, resampling_statistics, resampling_variance  # noqa: F401
from .weights import WeightScheme, sample_weights_batch


@dataclass(frozen=True)
class ConfidenceBall:
    """An L2 ball around a projection estimator, with its selection report."""

    selected_model: str
    selected_index: int
    center: np.ndarray
    radius: float
    top_dim: int
    beta: float
    eta: float
    growth_check_ok: bool
    report: RadiusReport

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).copy()
        center.flags.writeable = False
        object.__setattr__(self, "center", center)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, coefficients: Sequence[float], residual_norm_sq: float = 0.0) -> bool:
        """Closed-ball membership for a candidate in top-model coordinates.

        ``coefficients`` must have length ``top_dim``; a candidate with a
        component outside the top model passes its squared out-of-span norm
        as ``residual_norm_sq``, which is added in quadrature.
        """
        cand = np.asarray(coefficients, dtype=float)
        if cand.shape != (self.top_dim,):
            raise ValueError(
                f"candidate must have {self.top_dim} top-model coefficients, got shape {cand.shape}"
            )
        if residual_norm_sq < 0:
            raise ValueError("residual_norm_sq must be nonnegative")
        padded = np.zeros(self.top_dim)
        padded[: self.center.size] = self.center
        diff = cand - padded
        dist_sq = float(diff @ diff) + residual_norm_sq
        return dist_sq <= self.radius * self.radius


def select_model_index(radius_sq_values: Sequence[float], dims: Sequence[int]) -> int:
    """Index of the smallest radius; exact ties go to the smallest dimension.

    Invariant under rescaling all values by a common positive constant.
    """
    if len(radius_sq_values) != len(dims) or not radius_sq_values:
        raise ValueError("need one dimension per radius value")
    order = range(len(dims))
    return min(order, key=lambda i: (radius_sq_values[i], dims[i], i))


def build_confidence_ball(
    sample: Sample,
    collection: ModelCollection,
    scheme: WeightScheme,
    config: BoundConfig,
) -> ConfidenceBall:
    """Compute every model's radius, select the minimizer, build the ball.

    The estimates equal :func:`~densityball.estimators.resampling_variance`
    and :func:`~densityball.estimators.projection_bias_estimate` of each
    model, and the center equals :func:`~densityball.estimators.project` of
    the selected one, all obtained from one ``basis_sums`` pass of the top model.
    The dimension-growth check is advisory here: a failure is recorded in
    ``growth_check_ok`` and the construction proceeds.
    """
    if scheme.n != sample.n:
        raise ValueError(f"scheme size {scheme.n} does not match sample size {sample.n}")
    growth = check_dimension_growth(collection, sample.n, config.beta)
    n = sample.n
    dims = np.array([model.dim for model in collection])
    sums, squares = collection.top.basis_sums(sample.points)
    pairs = n * (n - 1.0)
    variance = np.cumsum(np.maximum(squares - sums * sums / n, 0.0))[dims - 1] / pairs
    # suffix[d] = sum over l >= d of the off-diagonal terms; 0 at the top model
    suffix = np.append(np.cumsum((sums * sums - squares)[::-1])[::-1], 0.0)
    bias = suffix[dims] / pairs
    v = variance_bounds(variance, dims, collection, config, n)
    k = bias_bounds(bias, collection, config, n)
    radius_sq, rho, clamped = radii(v, k, config.eta)
    rows = tuple(
        ModelRadius(
            model=model.label,
            dim=model.dim,
            variance_estimate=float(variance[i]),
            bias_estimate=float(bias[i]),
            variance_bound=float(v[i]),
            bias_bound=float(k[i]),
            radius_sq=float(radius_sq[i]),
            radius=float(rho[i]),
            clamped=bool(clamped[i]),
        )
        for i, model in enumerate(collection)
    )
    chosen = select_model_index([r.radius_sq for r in rows], [r.dim for r in rows])
    return ConfidenceBall(
        selected_model=rows[chosen].model,
        selected_index=chosen,
        center=sums[: rows[chosen].dim] / n,
        radius=rows[chosen].radius,
        top_dim=collection.top.dim,
        beta=config.beta,
        eta=config.eta,
        growth_check_ok=growth.holds,
        report=rows,
    )


def order_statistic_rank(level: float, count: int) -> int:
    """Rank ``ceil(level * count)`` in 1..count, robust to float fuzz."""
    t = level * count
    nearest = round(t)
    if abs(t - nearest) < 1e-9:
        t = nearest
    return min(max(int(math.ceil(t)), 1), count)


def resampled_quantile_radius(
    sample: Sample,
    model: Model,
    scheme: WeightScheme,
    alpha: float,
    n_draws: int,
    rng: np.random.Generator,
) -> float:
    """Empirical (1 - alpha) quantile of the reweighted squared statistic.

    Draws ``n_draws`` weight vectors, computes the normalized reweighted
    statistic for each, and returns the order statistic of rank
    ``ceil((1 - alpha) n_draws)``; ``alpha -> 0`` gives the largest draw.
    This is the squared-radius threshold used by the empirical coverage
    experiment.
    """
    if n_draws < 100:
        raise ValueError("need at least 100 draws for a stable quantile")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    draws = sample_weights_batch(scheme, n_draws, rng)
    stats = np.sort(resampling_statistics(sample, model, scheme, draws))
    return float(stats[order_statistic_rank(1.0 - alpha, n_draws) - 1])


def ball_to_doc(ball: ConfidenceBall) -> dict:
    """Plain-dict form of a ball for the structured text document."""
    return {
        "selected_model": ball.selected_model,
        "selected_index": ball.selected_index,
        "radius": float(ball.radius),
        "top_dim": ball.top_dim,
        "beta": float(ball.beta),
        "eta": float(ball.eta),
        "growth_check_ok": bool(ball.growth_check_ok),
        "center_coefficients": [float(c) for c in ball.center],
        "models": [
            {
                "model": r.model,
                "dim": r.dim,
                "variance_estimate": float(r.variance_estimate),
                "bias_estimate": float(r.bias_estimate),
                "variance_bound": float(r.variance_bound),
                "bias_bound": float(r.bias_bound),
                "radius_sq": float(r.radius_sq),
                "radius": float(r.radius),
                "clamped": bool(r.clamped),
            }
            for r in ball.report
        ],
    }


def ball_from_doc(doc: dict) -> ConfidenceBall:
    """Inverse of :func:`ball_to_doc`."""
    rows = tuple(
        ModelRadius(
            model=row["model"],
            dim=int(row["dim"]),
            variance_estimate=float(row["variance_estimate"]),
            bias_estimate=float(row["bias_estimate"]),
            variance_bound=float(row["variance_bound"]),
            bias_bound=float(row["bias_bound"]),
            radius_sq=float(row["radius_sq"]),
            radius=float(row["radius"]),
            clamped=bool(row["clamped"]),
        )
        for row in doc["models"]
    )
    return ConfidenceBall(
        selected_model=doc["selected_model"],
        selected_index=int(doc["selected_index"]),
        center=np.array(doc["center_coefficients"], dtype=float),
        radius=float(doc["radius"]),
        top_dim=int(doc["top_dim"]),
        beta=float(doc["beta"]),
        eta=float(doc["eta"]),
        growth_check_ok=bool(doc["growth_check_ok"]),
        report=rows,
    )
