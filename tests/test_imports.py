import ast
from pathlib import Path

import mgres

SRC = Path(mgres.__file__).parent


def imported_packages(node: ast.AST) -> set[str]:
    """The top-level packages an import statement names ("mgres" when relative)."""
    if isinstance(node, ast.ImportFrom):
        return {"mgres" if node.level > 0 else (node.module or "").split(".")[0]}
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    return set()


def test_no_module_imports_mgres_inside_a_function():
    # a function-local import hides a module's dependency, or a cycle, from its header
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if "mgres" in imported_packages(node)}
    assert sorted(found) == []


def test_only_scenario_imports_yaml():
    # every YAML file is read by scenario.read_yaml: one loader, one parse-error rule
    found = {path.name for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if "yaml" in imported_packages(node)}
    assert sorted(found) == ["scenario.py"]
