"""Tests for the public names of the package."""

import inspect
import re
from pathlib import Path

import densityball
from densityball import basis, estimators, weights


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
