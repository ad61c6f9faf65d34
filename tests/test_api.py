"""Tests for the public names of the package."""

import densityball


def test_all_names_are_unique_and_resolve():
    names = densityball.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(densityball, name)]
    assert missing == []


def test_all_leaves_out_the_module_level_helpers():
    # scalar bounds, contrasts and the single weight vector are imported from their modules
    helpers = {"variance_bound", "bias_bound", "radius", "helmert_contrasts", "sample_weights"}
    assert helpers.isdisjoint(densityball.__all__)
