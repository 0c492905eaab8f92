"""The package's public names: every ``__all__`` entry exists, and
``ararps/__init__.py`` re-exports only names its modules list in ``__all__``."""

import ast
import importlib
from pathlib import Path

import pytest

import ararps

INIT = Path(ararps.__file__)
MODULES = sorted(p.stem for p in INIT.parent.glob("*.py") if not p.stem.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"ararps.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_reexports_only_listed_names():
    unlisted = []
    for node in ast.walk(ast.parse(INIT.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"ararps.{node.module}")
            unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in mod.__all__]
    assert unlisted == []
