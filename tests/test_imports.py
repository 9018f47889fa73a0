import ast
from pathlib import Path

import mgres

SRC = Path(mgres.__file__).parent


def imports_mgres(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "mgres"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "mgres" for alias in node.names)


def test_no_module_imports_mgres_inside_a_function():
    # a function-local import hides a module's dependency, or a cycle, from its header
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if imports_mgres(node)}
    assert sorted(found) == []
