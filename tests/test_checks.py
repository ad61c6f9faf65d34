"""The package's one rule for scalar numbers, and a fuzz of every public callable that takes one."""

import dataclasses
import inspect
import math
import reprlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densityball as db
from densityball._checks import real, whole


def _alone(exc: BaseException) -> bool:
    """Whether ``exc`` shows no other exception: no cause, and no context unless suppressed."""
    return exc.__cause__ is None and (exc.__context__ is None or exc.__suppress_context__)


@pytest.mark.parametrize(
    "value,expected", [(3, 3), (3.0, 3), (np.int64(3), 3), (np.float64(-3.0), -3), (2**63, 2**63), (1e300, int(1e300))]
)
def test_whole_gives_a_whole_number_as_an_int(value, expected):
    number = whole(value, "x")
    assert number == expected and type(number) is int


@pytest.mark.parametrize(
    "value", [2.5, True, np.bool_(False), math.nan, math.inf, -math.inf, 10**400, -(10**400), "3", None, 1j, [3]]
)
def test_whole_refuses_anything_else_with_one_value_error_naming_the_argument(value):
    with pytest.raises(ValueError, match="^x must be a finite whole number, got ") as info:
        whole(value, "x")
    assert len(str(info.value)) < 100  # an int beyond the float range is not repeated
    assert _alone(info.value)


@pytest.mark.parametrize("value,low", [(0, 1), (-1, 0), (1.0, 2), (np.int64(-5), -4), (-(10**300), 0)])
def test_whole_refuses_a_value_below_its_bound(value, low):
    with pytest.raises(ValueError, match=f"^x must be >= {low}, got ") as info:
        whole(value, "x", low=low)
    assert len(str(info.value)) < 100


@pytest.mark.parametrize("value", [0, -1, 2.5, 2**63, 1e308, np.float64(3.0), np.int64(3), np.float32(0.5)])
def test_real_gives_a_finite_real_as_a_float(value):
    number = real(value, "x")
    assert number == value and type(number) is float


@pytest.mark.parametrize("value", [True, np.bool_(True), math.nan, math.inf, -math.inf, 10**400, "3", None, 1j])
def test_real_refuses_anything_else_with_one_value_error_naming_the_argument(value):
    with pytest.raises(ValueError, match="^x must be finite") as info:
        real(value, "x")
    assert len(str(info.value)) < 100


COLLECTION = db.histogram_collection([1, 2, 4])
SAMPLE = db.sample_from(db.UniformDensity(), 12, db.replication_rng(5, 0))
SUMS, SQUARES = COLLECTION.top.basis_sums(SAMPLE.points)
BALL = db.build_confidence_ball(SAMPLE, COLLECTION, db.BoundConfig(0.1, 2.0, 2.0))
CENTER = np.zeros(BALL.top_dim)

# Calls that were wrong before the rule lived in one module: an OverflowError, a silent NaN or
# inf, an accepted bool or fraction, a leaked TypeError, or a message repeating a 400-digit int.
# Each is now one ValueError naming the argument.
REFUSED = {
    "BoundConfig-beta": (lambda: db.BoundConfig(beta=10**400, m2=1.0, m_inf=1.0), "beta"),
    "BoundConfig-m2": (lambda: db.BoundConfig(beta=0.1, m2=10**400, m_inf=1.0), "m2"),
    "bias_deviation_constant": (lambda: db.bias_deviation_constant(0.5, 10**400, 1), "c1"),
    "contains-huge": (lambda: BALL.contains(CENTER, 10**400), "residual_norm_sq"),
    "contains-inf": (lambda: BALL.contains(CENTER, math.inf), "residual_norm_sq"),
    "sobolev": (lambda: db.fourier_collection_for_sobolev(100, 10**400), "gamma"),
    "coverage-alphas": (
        lambda: db.coverage_experiment(db.UniformDensity(), 20, 4, 10, 2, alphas=[10**400]), "alpha"
    ),
    "rank-inf": (lambda: db.order_statistic_rank(math.inf, 10), "level"),
    "rank-nan": (lambda: db.order_statistic_rank(math.nan, 10), "level"),
    "variance-constant-nan": (lambda: db.variance_deviation_constant(math.nan, 1), "c1"),
    "variance-constant-inf": (lambda: db.variance_deviation_constant(math.inf, 1), "c1"),
    "variance-constant-overflow": (lambda: db.variance_deviation_constant(1e200, 1), "c1 and c3"),
    "bias-constant-overflow": (lambda: db.bias_deviation_constant(0.5, 1e200, 1), "c1 and c3"),
    "contains-huge-coefficient": (lambda: BALL.contains([10**400] + [0.0] * (BALL.top_dim - 1)), "coefficients"),
    "WeightScheme-fraction": (lambda: db.WeightScheme(db.WeightKind.EFRON_MULTINOMIAL, 2.5, math.nan), "n"),
    "growth-fraction": (lambda: db.check_dimension_growth(COLLECTION, 2.5, 0.1), "n"),
    "cosine-bool": (lambda: db.CosineTiltDensity(0.3, True), "frequency"),
    "sample-fraction": (lambda: db.sample_from(db.UniformDensity(), 2.5, np.random.default_rng(0)), "n"),
    "scheme-huge": (lambda: db.make_scheme("efron", 10**400), "n"),
    "select-nan": (lambda: db.select_model_index([math.nan, 1.0], [1, 2]), "radius_sq_values"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_a_bad_number_is_one_value_error_naming_its_argument(case):
    call, name = REFUSED[case]
    with pytest.raises(ValueError, match=f"^{name} must ") as info:
        call()
    assert len(str(info.value)) < 100 and _alone(info.value)


def test_a_rank_level_beyond_one_is_clamped_without_overflow():
    # 1e308 * 10 used to overflow in round()
    assert db.order_statistic_rank(1e308, 10) == db.order_statistic_rank(1.0, 10) == 10


# Edge values drawn into at most two numeric slots of a call.
EDGES = (0, -1, 2.5, True, math.nan, math.inf, -math.inf, 10**400, 2**63, np.float64(3.0), np.int64(3))
# A size slot (a sample size, a weight-draw count, or a sample size that sets the collection size)
# leaves out 2**63: it is a legal whole number, and the arrays it sizes would need exabytes.
SIZE_EDGES = tuple(value for value in EDGES if value is not EDGES[8])
UNIT = st.floats(0.05, 0.95)
POSITIVE = st.floats(0.1, 10.0)


def _size(low, high):
    return st.integers(low, high), SIZE_EDGES


# One row per public callable that takes a number: the call, and per numeric slot a strategy of
# valid values, or (strategy, edges) for a size slot.  Sizes stay small, so that no example takes
# more than a few MB or runs for more than a fraction of a second.
ROWS = {
    "BoundConfig": (
        db.BoundConfig, dict(beta=UNIT, m2=POSITIVE, m_inf=POSITIVE, eta=st.floats(0, 1), kappa_scale=st.floats(0, 2))
    ),
    "ConfidenceBall": (
        lambda **numbers: db.ConfidenceBall("m", center=[0.5], growth_check_ok=True, report=(), **numbers),
        dict(selected_index=st.integers(0, 3), radius=POSITIVE, top_dim=st.integers(1, 4), beta=UNIT, eta=POSITIVE),
    ),
    "ConfidenceBall.contains": (
        lambda residual_norm_sq: BALL.contains(CENTER, residual_norm_sq), dict(residual_norm_sq=POSITIVE)
    ),
    "CosineTiltDensity": (db.CosineTiltDensity, dict(amplitude=st.floats(-0.7, 0.7), frequency=st.integers(1, 50))),
    "FourierModel": (db.FourierModel, dict(cutoff=st.integers(0, 20))),
    "HistogramModel": (db.HistogramModel, dict(cells=st.integers(1, 64))),
    "Model": (lambda dim, c1: db.Model(dim, c1, "model"), dict(dim=st.integers(1, 10), c1=POSITIVE)),
    "PiecewisePolynomialModel": (
        db.PiecewisePolynomialModel, dict(pieces=st.integers(1, 16), degree_bound=st.integers(1, 4))
    ),
    "bias_deviation_constant": (db.bias_deviation_constant, dict(epsilon=UNIT, c1=POSITIVE, c3=POSITIVE)),
    "check_dimension_growth": (
        lambda n, beta: db.check_dimension_growth(COLLECTION, n, beta), dict(n=st.integers(2, 10**6), beta=UNIT)
    ),
    "coverage_experiment": (
        lambda alpha, **numbers: db.coverage_experiment(db.UniformDensity(), alphas=[alpha], **numbers),
        dict(
            n=_size(2, 20), dim=st.integers(1, 6), n_draws=_size(1, 20), reps=st.integers(1, 3), alpha=UNIT,
            seed=st.integers(0, 10**6),
        ),
    ),
    "fourier_collection_for_sobolev": (
        db.fourier_collection_for_sobolev, dict(n=_size(3, 300), gamma=st.floats(0.25, 5.0))
    ),
    "make_scheme": (lambda n: db.make_scheme("efron", n), dict(n=st.integers(2, 10**6))),
    "normalized_difference_experiment": (
        lambda **numbers: db.normalized_difference_experiment(db.UniformDensity(), **numbers),
        dict(
            n=_size(2, 20), dim=st.integers(1, 6), n_draws=_size(1, 20), reps=st.integers(1, 3),
            seed=st.integers(0, 10**6),
        ),
    ),
    "order_statistic_rank": (db.order_statistic_rank, dict(level=st.floats(0, 1), count=st.integers(1, 10**6))),
    "piecewise_polynomial_collection": (
        lambda degree_bound: db.piecewise_polynomial_collection([1, 2], degree_bound),
        dict(degree_bound=st.integers(1, 4)),
    ),
    "prefix_estimates": (lambda n: db.prefix_estimates(SUMS, SQUARES, n, [1, 2, 4]), dict(n=st.integers(2, 1000))),
    "replication_rng": (
        db.replication_rng, dict(master_seed=st.integers(0, 2**64), index=st.integers(0, 2**32 - 1))
    ),
    "sample_from": (lambda n: db.sample_from(db.UniformDensity(), n, np.random.default_rng(0)), dict(n=_size(2, 50))),
    "select_model_index": (
        lambda first, second: db.select_model_index([first, second], [1, 2]), dict(first=POSITIVE, second=POSITIVE)
    ),
    "variance_deviation_constant": (db.variance_deviation_constant, dict(c1=POSITIVE, c3=POSITIVE)),
    "WeightScheme": (
        lambda n, normalizer: db.WeightScheme("efron", n, normalizer),
        dict(n=st.integers(2, 10**6), normalizer=POSITIVE),
    ),
}


def _all_finite(value, depth=0) -> bool:
    """Whether every float reachable from ``value`` (containers, arrays, attributes) is finite."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if depth == 4:
        return True
    if isinstance(value, (list, tuple)):
        return all(_all_finite(item, depth + 1) for item in value)
    return all(_all_finite(item, depth + 1) for item in getattr(value, "__dict__", {}).values())


@pytest.mark.parametrize("name", ROWS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_number_is_taken_or_refused_with_one_value_error(name, data):
    call, slots = ROWS[name]
    edged = data.draw(st.sets(st.sampled_from(sorted(slots)), max_size=2), label="edged slots")
    numbers = {}
    for slot, strategy in slots.items():
        strategy, edges = strategy if isinstance(strategy, tuple) else (strategy, EDGES)
        numbers[slot] = data.draw(st.sampled_from(edges) if slot in edged else strategy, label=slot)
    try:
        result = call(**numbers)
    except ValueError as exc:  # any other exception fails the test
        assert _alone(exc)
        return
    assert _all_finite(result)


# Public callables that take a sequence of numbers, each with a valid sequence; one entry of it is
# replaced by an edge value.  Counts also meet a fraction.
SEQUENCE_EDGES = (math.nan, math.inf, -math.inf, 10**400, True, "3")
SEQUENCES = {
    "ConfidenceBall.contains-coefficients": (BALL.contains, [0.0] * BALL.top_dim, SEQUENCE_EDGES),
    "HistogramDensity-cell_values": (db.HistogramDensity, [1.0, 1.0, 1.0], SEQUENCE_EDGES),
    "histogram_collection-dims": (db.histogram_collection, [1, 2, 4], SEQUENCE_EDGES + (2.5,)),
    "fourier_collection-dims": (db.fourier_collection, [1, 3, 5], SEQUENCE_EDGES + (2.5,)),
    "piecewise_polynomial_collection-dims": (
        lambda dims: db.piecewise_polynomial_collection(dims, 2), [1, 2, 4], SEQUENCE_EDGES + (2.5,)
    ),
}
SEQUENCE_CASES = [
    pytest.param(name, position, edge, id=f"{name}-{position}-{reprlib.repr(edge)}")
    for name, (_, valid, edges) in SEQUENCES.items()
    for position in range(len(valid))
    for edge in edges
]


@pytest.mark.parametrize("name,position,edge", SEQUENCE_CASES)
def test_an_edge_value_in_a_sequence_is_taken_or_refused_with_one_value_error(name, position, edge):
    call, valid, _ = SEQUENCES[name]
    values = list(valid)
    values[position] = edge
    try:
        result = call(values)
    except ValueError as exc:  # any other exception fails the test
        assert _alone(exc)
        return
    assert _all_finite(result)


@pytest.mark.parametrize("name,what", [("ConfidenceBall.contains-coefficients", "coefficients"),
                                       ("HistogramDensity-cell_values", "cell values")])
@pytest.mark.parametrize("edge", [True, np.True_, "3"], ids=repr)
def test_a_bool_or_a_string_among_real_numbers_is_refused(name, what, edge):
    # each used to be taken as a number: ["3", 0, 0, 0] as (3, 0, 0, 0) and [True, 1, 1] as (1, 1, 1)
    call, valid, _ = SEQUENCES[name]
    for position in range(len(valid)):
        values = list(valid)
        values[position] = edge
        with pytest.raises(ValueError, match=f"^{what} must be real numbers, got ") as info:
            call(values)
        assert _alone(info.value)


def test_python_and_numpy_numbers_and_numeric_arrays_are_real_numbers():
    numbers = [np.float64(0.0), np.int64(0), 0, np.float32(0.0)]
    for candidate in (numbers, np.zeros(BALL.top_dim, dtype=int), np.zeros(BALL.top_dim, dtype=object)):
        assert BALL.contains(candidate)
    for values in ([np.int64(1), 1.0, np.float32(1.0)], np.ones(3, dtype=np.uint8), np.ones(3, dtype=object)):
        np.testing.assert_array_equal(db.HistogramDensity(values).cell_values, [1.0, 1.0, 1.0])


def _takes_a_number(obj) -> bool:
    """Whether a public callable has a parameter annotated ``int`` or ``float`` (alone or in a union)."""
    try:
        parameters = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # an alias such as RadiusReport has no signature
        return False
    return any({"int", "float"} & {part.strip() for part in str(p.annotation).split("|")} for p in parameters)


def test_every_public_callable_that_takes_a_number_has_a_fuzz_row():
    # A dataclass without __post_init__ is a record: it stores what its producer checked
    # (GrowthReport, ModelRadius, SupNormReport), so it has no row.
    records = {
        name for name in db.__all__
        if dataclasses.is_dataclass(getattr(db, name)) and not hasattr(getattr(db, name), "__post_init__")
    }
    takers = {name for name in db.__all__ if callable(getattr(db, name)) and _takes_a_number(getattr(db, name))}
    assert records & takers == {"GrowthReport", "ModelRadius", "SupNormReport"}
    assert takers - records <= set(ROWS)
