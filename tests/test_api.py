"""Tests for the public names of the package."""

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


def test_version_matches_pyproject():
    # the version is written in two places by hand
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]+)"$', text, flags=re.M) == [densityball.__version__]
