"""Tests for the public names of the package."""

import densityball
from densityball import basis, weights


def test_all_names_are_unique_and_resolve():
    names = densityball.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(densityball, name)]
    assert missing == []


def test_all_leaves_out_the_module_level_helpers():
    # contrasts and the single weight vector are imported from their modules
    helpers = {"helmert_contrasts": basis, "sample_weights": weights}
    assert all(hasattr(module, name) for name, module in helpers.items())
    assert set(helpers).isdisjoint(densityball.__all__)

