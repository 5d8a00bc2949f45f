"""Every docstring example in the graphwalk package runs and prints what it shows."""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil

import pytest

import graphwalk

MODULES = sorted(f"graphwalk.{m.name}" for m in pkgutil.iter_modules(graphwalk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.failed == 0
    # a module whose docstrings show examples must have them run
    assert result.attempted > 0 or ">>>" not in inspect.getsource(module)
