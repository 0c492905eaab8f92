"""The package's public names: every ``__all__`` entry exists,
``ararps/__init__.py`` re-exports only names its modules list in ``__all__``,
and the README's quick start runs on them.  Also: the test modules draw their
random inputs from ``tests/strategies.py`` alone."""

import ast
import importlib
import re
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


def test_random_inputs_come_from_strategies():
    # test_acceptance.py keeps its own series, so that the acceptance gate stands alone
    copies = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        if path.name != "test_acceptance.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and ("random_series" in node.name or any(
                        ast.unparse(d).endswith("composite") for d in node.decorator_list)):
                    copies.append(f"{path.name}::{node.name}")
    assert copies == []


def test_readme_quick_start_prints_its_comments(capsys):
    # the README's one python block runs, and its commented outputs are what it prints
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    exec(blocks[0], {})
    printed = capsys.readouterr().out.splitlines()
    comments = [m.group(1) for m in re.finditer(r"^print\(.*#\s*([^\s,]+)", blocks[0], re.MULTILINE)]
    assert comments == ["1*cosh(x)", "0.0"]
    assert printed[:2] == comments


def test_no_frequency_cell_is_left():
    # frequencies are integer keys over a basis: no 2**-30 cell, its 2**30 scale or the 2**-31 floor
    cell = re.compile(r"_CELLS|\b2(\.0)?\s*\*\*\s*\(?-?3[01]\b")
    hits = [f"{p.name}:{n}" for p in sorted(INIT.parent.glob("*.py"))
            for n, line in enumerate(p.read_text().splitlines(), 1) if cell.search(line)]
    assert hits == []
