"""Tests for the public names of the package."""

import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import densityball
from densityball import _quadrature, ball, basis, bounds, estimators, experiments, oracle, weights

SRC = Path(densityball.__file__).resolve().parent


def test_all_names_are_unique_and_resolve():
    names = densityball.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(densityball, name)]
    assert missing == []


def test_all_leaves_out_the_module_level_helpers():
    # helpers with no caller in the package live in the tests' reference module since 0.4.0,
    # coordinate_variance_total since 0.5.0, when Model.eval_basis went
    removed = {
        "helmert_contrasts": basis,
        "sample_weights": weights,
        "resampling_variance_monte_carlo": estimators,
        "coordinate_variance_total": estimators,
        "eval_basis": basis.Model,
    }
    assert not any(hasattr(owner, name) for name, owner in removed.items())
    assert set(removed).isdisjoint(densityball.__all__)


def test_a_piecewise_model_holds_its_own_levels():
    # since 0.6.0 the shared chain objects, their dim filter and Model.params are gone
    models = [basis.HistogramModel(4, [2, 4]), basis.FourierModel(2), basis.PiecewisePolynomialModel(4, 2, (1, 4))]
    for model in models:
        assert not any(hasattr(model, name) for name in ("params", "chain", "levels_within")), model.label
    assert not hasattr(basis, "_HistogramChain") and not hasattr(basis, "_PolynomialChain")


def test_construction_takes_only_what_callers_vary():
    # since 0.7.0 the ball takes no weight scheme, c_m is a constant and Fourier collections take dims only
    params = {
        densityball.build_confidence_ball: ["sample", "collection", "config"],
        densityball.ModelCollection: ["models"],
        densityball.histogram_collection: ["dims"],
        densityball.fourier_collection: ["dims"],
        densityball.piecewise_polynomial_collection: ["piece_counts", "degree_bound"],
        densityball.fourier_collection_for_sobolev: ["n", "gamma"],
    }
    for function, names in params.items():
        assert list(inspect.signature(function).parameters) == names, function.__name__
    assert densityball.ModelCollection.c_m == 4.0
    assert not hasattr(densityball.ModelCollection, "top_index")


def test_names_no_caller_needs_are_gone():
    # since 0.8.0: a resampled quantile is an order statistic of resampling_statistics, project returns its
    # array, a coefficient is an entry of true_coefficients, and len(collection) counts the models
    removed = {
        "resampled_quantile_radius": ball,
        "ProjectionEstimate": estimators,
        "true_coefficient": oracle,
        "gram_matrix": _quadrature,
        "_bias_factor": bounds,
    }
    assert not any(hasattr(owner, name) for name, owner in removed.items())
    assert set(removed).isdisjoint(densityball.__all__)
    # the rank convention moved to its one caller
    assert not hasattr(ball, "order_statistic_rank")
    assert densityball.order_statistic_rank is experiments.order_statistic_rank
    assert len(densityball.__all__) == 47
    assert not hasattr(basis.ModelCollection, "cardinality")
    assert not hasattr(ball.ConfidenceBall, "diameter")
    for cls in (oracle.DensityOracle, *oracle.DensityOracle.__subclasses__()):
        assert not hasattr(cls, "kind") and "kind" not in vars(cls).get("__annotations__", {}), cls.__name__
    coefficients = estimators.project(estimators.Sample([0.1, 0.2, 0.7]), basis.HistogramModel(2))
    assert isinstance(coefficients, np.ndarray) and not coefficients.flags.writeable


def test_per_point_references_live_with_the_tests():
    # since 0.9.0 the per-point weights, the reweighted statistic, the exact enumeration and the exact
    # squared bias are in tests/reference.py, and Model.basis_chunks is gone
    removed = {
        "sample_weights_batch": weights,
        "enumerate_weights": weights,
        "_compositions": weights,
        "MAX_ENUMERATION_N": weights,
        "resampling_statistics": estimators,
        "resampling_variance_enumerated": estimators,
        "true_bias_sq": oracle,
    }
    assert not any(hasattr(owner, name) for name, owner in removed.items())
    assert set(removed).isdisjoint(densityball.__all__)
    assert not hasattr(basis.Model, "basis_chunks")
    assert not any(hasattr(cls, "basis_chunks") for cls in basis.Model.__subclasses__())


def _assert_binds_nothing_from_weights(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "weights" not in imported
    bound = [name for name, value in vars(module).items() if getattr(value, "__module__", None) == weights.__name__]
    assert bound == []


def test_the_ball_binds_nothing_from_weights():
    _assert_binds_nothing_from_weights(ball)


def test_the_estimators_bind_nothing_from_weights():
    # since 0.9.0 the estimators import from basis and _quadrature only
    _assert_binds_nothing_from_weights(estimators)
    tree = ast.parse(Path(estimators.__file__).read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"basis", "_quadrature"}


def test_bias_deviation_constant_takes_an_array_of_epsilons():
    grid = np.array(bounds.EPSILON_GRID)
    for c1, c3 in ((1.0, 4.0), (math.sqrt(2.0), 4.0), (3.0, 7.5)):
        scalars = [bounds.bias_deviation_constant(eps, c1, c3) for eps in bounds.EPSILON_GRID]
        assert all(type(value) is float for value in scalars)
        assert bounds.bias_deviation_constant(grid, c1, c3).tolist() == scalars
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            bounds.bias_deviation_constant(np.append(grid, bad), 1.0, 4.0)
        with pytest.raises(ValueError, match="epsilon"):
            bounds.bias_deviation_constant(bad, 1.0, 4.0)


def _module_level_definitions():
    """(module, name, first line, last line) of each module-level function and class in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name, node.lineno, node.end_lineno


def test_every_module_level_name_is_exported_or_used():
    # a reference is a Name or an Attribute anywhere in the package outside the name's own definition
    references = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                references.append((path.stem, name, node.lineno))
    dead = [
        f"{module}.{name}"
        for module, name, first, last in _module_level_definitions()
        if name not in densityball.__all__
        and not any(n == name and not (m == module and first <= line <= last) for m, n, line in references)
    ]
    assert dead == []


def test_no_line_is_longer_than_120_characters():
    root = Path(__file__).resolve().parents[1]
    long_lines = [
        f"{path.relative_to(root)}:{number}"
        for path in sorted([*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")])
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 120
    ]
    assert long_lines == []


def test_version_matches_pyproject():
    # the version is written in two places by hand
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]+)"$', text, flags=re.M) == [densityball.__version__]
