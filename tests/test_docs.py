"""Every docstring example in the graphwalk package, and every Python block
of README, runs and prints what it shows."""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import graphwalk

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(f"graphwalk.{m.name}" for m in pkgutil.iter_modules(graphwalk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.failed == 0
    # a module whose docstrings show examples must have them run
    assert result.attempted > 0 or ">>>" not in inspect.getsource(module)


def test_readme_quick_start(capsys):
    # The blocks build on each other, so they share one namespace.
    blocks = [b.split("```", 1)[0] for b in README.read_text().split("```python\n")[1:]]
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)
    assert capsys.readouterr().out.splitlines() == ["4 0.978", "0", "53", "True"]
