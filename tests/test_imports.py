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


def calls(path: Path, name: str) -> bool:
    """Whether the module at ``path`` calls a function or method ``name``."""
    return any(isinstance(node, ast.Call)
               and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
               for node in ast.walk(ast.parse(path.read_text(), str(path))))


def test_only_scenario_reads_a_model_and_a_run_opens_no_file():
    # the config owns the ANN model: scenario.from_dict reads it once, when
    # the scenario is built, so a run neither loads a model nor opens a file
    assert sorted(path.name for path in SRC.glob("*.py") if calls(path, "load_model")) \
        == ["scenario.py"]
    assert not calls(SRC / "simulate.py", "open")


# functions on the per-step path of the closed loop, by qualified name
STEP_PATH = {"step_plant", "solve_network", "secondary_update", "ann_controller",
             "_Forward.run"}
# numpy functions that pass through a Python-level __array_function__ wrapper
# (np.vdot on complex operands is slower still); ndarray methods, slice
# assignment or a real dot on float views do the same work without it
DISPATCHERS = {"dot", "vdot", "copyto", "matmul", "concatenate"}


def functions(tree: ast.Module):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))


def slow_calls(fn: ast.FunctionDef):
    """Each call in fn to a numpy dispatcher, or to ``.take`` without mode "clip"
    (whose default mode "raise" copies through a buffer when given ``out``)."""
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr, owner = node.func.attr, node.func.value
        if (attr in DISPATCHERS and isinstance(owner, ast.Name)
                and owner.id in ("np", "numpy")):
            yield node.lineno, f"np.{attr}"
        elif attr == "take" and not any(
                kw.arg == "mode" and isinstance(kw.value, ast.Constant)
                and kw.value.value == "clip" for kw in node.keywords):
            yield node.lineno, ".take without mode=\"clip\""


def test_step_path_calls_no_numpy_dispatcher():
    seen, found = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for name, fn in functions(ast.parse(path.read_text(), str(path))):
            if name in STEP_PATH:
                seen.add(name)
                found |= {f"{path.name}:{line} {what}" for line, what in slow_calls(fn)}
    assert seen == STEP_PATH
    assert sorted(found) == []
