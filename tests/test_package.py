"""Tests for the public namespace of the package."""

import inspect

import matball
from matball import errors


def test_all_names_are_unique_and_resolve():
    assert len(matball.__all__) == len(set(matball.__all__))
    missing = [name for name in matball.__all__ if not hasattr(matball, name)]
    assert missing == []


def test_every_error_class_is_exported():
    # a caller can catch whatever the public functions raise by its name in
    # the package namespace
    defined = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, errors.MatballError)
               and obj.__module__ == errors.__name__}
    assert "ConvergenceError" in defined
    assert defined <= set(matball.__all__)
