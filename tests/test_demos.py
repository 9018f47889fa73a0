"""Every name a demo imports from mgres must exist, and demos 01-04 run."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


# demo 05 trains its own model for several seconds: it stays import-only
@pytest.mark.parametrize("path", DEMOS[:4], ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    # a demo removes what it writes: demo 04 left its mkdtemp() directory behind
    src, tmp = str(ROOT / "src"), tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert list(tmp.iterdir()) == []
