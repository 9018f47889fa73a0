"""Every name a demo imports from mgres must exist."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def mgres_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from mgres[.x] import name`` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "mgres"
            for alias in node.names]


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    names = mgres_imports(path)
    assert names, f"{path.name} imports nothing from mgres"
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, f"{path.name} imports missing names: {missing}"
