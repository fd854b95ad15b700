"""Tests for the public namespace of the package."""

import ast
import inspect
from pathlib import Path

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


def test_only_boundary_uses_the_walk_internals():
    # the torus walk's block budget, table format and walk stay in one
    # module: no other module of the package imports (or reads through the
    # module object) a name of boundary that starts with an underscore
    found = []
    for path in sorted(Path(matball.__file__).parent.glob("*.py")):
        if path.name == "boundary.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "boundary", "matball.boundary"):
                found += [(path.name, a.name) for a in node.names
                          if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "boundary"
                  and node.attr.startswith("_")):
                found.append((path.name, node.attr))
    assert found == []
