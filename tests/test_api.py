"""Tests for the public names of the package."""

import densityball


def test_all_names_are_unique_and_resolve():
    names = densityball.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(densityball, name)]
    assert missing == []
