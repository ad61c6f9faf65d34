"""Tests for the public names of the package."""

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
