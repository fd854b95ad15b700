"""Tests for the public namespace of the package."""

import matball


def test_all_names_are_unique_and_resolve():
    assert len(matball.__all__) == len(set(matball.__all__))
    missing = [name for name in matball.__all__ if not hasattr(matball, name)]
    assert missing == []
