"""Model selection by radius minimization and the resulting confidence ball.

Every model of a collection spans a leading block of the top model's
orthonormal system, so one pass over the sample suffices for the whole
collection: :meth:`~densityball.basis.Model.basis_sums` of the top model
gives the per-coefficient sums ``S_l = sum_i psi_l(X_i)`` and
``Q_l = sum_i psi_l(X_i)^2``, from the top basis evaluated once per point
or, for histograms, from per-level cell counts.
:func:`~densityball.estimators.prefix_estimates` turns them into every
model's resampling variance (prefix sums) and nested-bias U-statistic
(suffix sums), the same function the per-model estimators are views of,
and ``S[:d] / n`` is the projection estimator of the model of dimension
``d``.  Building a ball takes no weight scheme and draws no weights (see
:func:`build_confidence_ball`).  The bounds of all models are then
evaluated together; the ball is centered at the projection estimator of the
model with the smallest radius (ties go to the smallest dimension).
Membership is evaluated in the coefficient space of the collection's top
model, with an optional quadrature term for candidates that have mass
outside the top model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, get_type_hints

import numpy as np

from ._checks import real, reals, whole
from .basis import ModelCollection, check_dimension_growth
from .bounds import BoundConfig, ModelRadius, RadiusReport, bias_bounds, radii, variance_bounds
# resampling_variance stays importable from here: perfbench's tests look it up
# in this namespace.  The ball itself does not call it.
from .estimators import resampling_variance  # noqa: F401
from .estimators import Sample, prefix_estimates

# The per-model columns of a report and the type of their values, in field
# order: the one schema of the report rows, the ball document and the CSV table.
REPORT_COLUMNS = tuple(get_type_hints(ModelRadius).items())


def _model_radius(values) -> ModelRadius:
    """A report row from its column values in :data:`REPORT_COLUMNS` order."""
    return ModelRadius(*(cast(value) for (_, cast), value in zip(REPORT_COLUMNS, values)))


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
        for name in ("selected_index", "top_dim"):
            object.__setattr__(self, name, whole(getattr(self, name), name, low=0))
        for name in ("radius", "beta", "eta"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        center = np.asarray(self.center, dtype=float).copy()
        center.flags.writeable = False
        object.__setattr__(self, "center", center)

    def contains(self, coefficients: Sequence[float], residual_norm_sq: float = 0.0) -> bool:
        """Closed-ball membership for a candidate in top-model coordinates.

        ``coefficients`` must have length ``top_dim``; a candidate with a
        component outside the top model passes its squared out-of-span norm
        as ``residual_norm_sq``, which is added in quadrature.  A NaN in
        either is refused, as no distance can be compared with the radius,
        and so is an infinite ``residual_norm_sq``, which is no norm.
        """
        cand = reals(coefficients, "coefficients")
        if cand.shape != (self.top_dim,):
            raise ValueError(
                f"candidate must have {self.top_dim} top-model coefficients, got shape {cand.shape}"
            )
        if np.isnan(cand).any():
            raise ValueError("candidate coefficients must not be NaN")
        residual_norm_sq = real(residual_norm_sq, "residual_norm_sq")
        if residual_norm_sq < 0:
            raise ValueError(f"residual_norm_sq must be nonnegative, got {residual_norm_sq}")
        padded = np.zeros(self.top_dim)
        padded[: self.center.size] = self.center
        diff = cand - padded
        dist_sq = float(diff @ diff) + residual_norm_sq
        return dist_sq <= self.radius * self.radius


def select_model_index(radius_sq_values: Sequence[float], dims: Sequence[int]) -> int:
    """Index of the smallest radius; exact ties go to the smallest dimension.

    Invariant under rescaling all values by a common positive constant.
    A value that is not finite is refused: NaN would fail every comparison.
    """
    values = [real(value, "radius_sq_values") for value in radius_sq_values]
    if len(values) != len(dims) or not values:
        raise ValueError("need one dimension per radius value")
    return min(range(len(dims)), key=lambda i: (values[i], dims[i], i))


def build_confidence_ball(sample: Sample, collection: ModelCollection, config: BoundConfig) -> ConfidenceBall:
    """Compute every model's radius, select the minimizer, build the ball.

    The estimates equal :func:`~densityball.estimators.resampling_variance`
    and :func:`~densityball.estimators.projection_bias_estimate` of each
    model, and the center equals :func:`~densityball.estimators.project` of
    the selected one, all obtained from one ``basis_sums`` pass of the top
    model through :func:`~densityball.estimators.prefix_estimates`.
    No weight scheme is taken: the variance estimate is the closed form of
    the normalized resampling penalty, which is the same for every
    exchangeable scheme, so no draw is made and the ball does not depend
    on the scheme.
    The dimension-growth check is advisory here: a failure is recorded in
    ``growth_check_ok`` and the construction proceeds.
    """
    growth = check_dimension_growth(collection, sample.n, config.beta)
    n = sample.n
    dims = np.array([model.dim for model in collection])
    sums, squares = collection.top.basis_sums(sample.points)
    variance, bias, _ = prefix_estimates(sums, squares, n, dims)
    v = variance_bounds(variance, dims, collection, config, n)
    k = bias_bounds(bias, collection, config, n)
    radius_sq, rho, clamped = radii(v, k, config.eta)
    labels = [model.label for model in collection]
    rows = tuple(map(_model_radius, zip(labels, dims, variance, bias, v, k, radius_sq, rho, clamped)))
    chosen = select_model_index(radius_sq.tolist(), dims.tolist())
    return ConfidenceBall(
        selected_model=labels[chosen],
        selected_index=chosen,
        center=sums[: dims[chosen]] / n,
        radius=float(rho[chosen]),
        top_dim=collection.top.dim,
        beta=config.beta,
        eta=config.eta,
        growth_check_ok=growth.holds,
        report=rows,
    )


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
        "models": [{name: cast(getattr(r, name)) for name, cast in REPORT_COLUMNS} for r in ball.report],
    }


def ball_from_doc(doc: dict) -> ConfidenceBall:
    """Inverse of :func:`ball_to_doc`."""
    rows = tuple(_model_radius(row[name] for name, _ in REPORT_COLUMNS) for row in doc["models"])
    return ConfidenceBall(
        selected_model=doc["selected_model"],
        selected_index=doc["selected_index"],
        center=np.array(doc["center_coefficients"], dtype=float),
        radius=doc["radius"],
        top_dim=doc["top_dim"],
        beta=doc["beta"],
        eta=doc["eta"],
        growth_check_ok=bool(doc["growth_check_ok"]),
        report=rows,
    )
