import ast
import re
from dataclasses import fields
from pathlib import Path

import mgres
from mgres.trace import Trace

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


def calls(where: Path | ast.AST, name: str) -> bool:
    """Whether the module at ``where``, or the node ``where``, calls a function
    or method ``name``."""
    tree = ast.parse(where.read_text(), str(where)) if isinstance(where, Path) else where
    return any(isinstance(node, ast.Call)
               and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
               for node in ast.walk(tree))


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


def test_scenario_alone_puts_events_and_attacks_on_steps():
    # attack.STEP_TOLERANCE holds the 1e-12 s rule of LoadEvent.due and
    # AttackSpec.active, and ScenarioConfig.first_step the one step search;
    # the run and the run planner compare the steps it finds
    for name in ("simulate.py", "datagen.py"):
        tree = ast.parse((SRC / name).read_text(), name)
        assert [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value == 1e-12] == [], name
    searches = sorted(f"{path.name}:{name}" for path in SRC.glob("*.py")
                      for name, _ in functions(ast.parse(path.read_text(), str(path)))
                      if "first_step" in name)
    assert searches == ["scenario.py:ScenarioConfig.first_step"]
    # the planner that gen-data reads (which runs share a stretch, and which
    # earlier run each resumes from) is defined once, beside the timeline
    assert not calls(SRC / "datagen.py", "first_step")
    planners = sorted(f"{path.name}:{name}" for path in SRC.glob("*.py")
                      for name, _ in functions(ast.parse(path.read_text(), str(path)))
                      if re.fullmatch(r"_?(shared\w*|plan|plan_runs)", name.split(".")[-1]))
    assert planners == ["scenario.py:ScenarioConfig.shared_until", "scenario.py:plan_runs"]


def writes_a_file(fn: ast.AST) -> bool:
    """Whether fn calls ``os.replace``, or ``open`` with a mode other than a
    read-only literal."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "replace" \
                and getattr(func.value, "id", None) == "os":
            return True
        if getattr(func, "id", None) == "open":
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[1] if len(node.args) > 1 else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                return True
    return False


def test_only_trace_write_text_writes_a_file():
    # every file mgres writes (trace CSV, manifest, model, compare report) is
    # replaced whole by one writer; a module's top level writes nothing
    writers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        writers += [f"{path.name}:{name}" for name, fn in functions(tree) if writes_a_file(fn)]
        top = [node for node in tree.body if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        assert not any(writes_a_file(node) for node in top), path.name
    assert writers == ["trace.py:write_text"]


def test_a_trace_is_one_block_built_in_trace_py():
    # a Trace is its CSV: one float block, the attack flag its last column, made
    # by Trace.empty (a run's block) or parse_csv (a file's block) and nowhere else
    builders = sorted(f"{path.name}:{name}" for path in SRC.glob("*.py")
                      for name, fn in functions(ast.parse(path.read_text(), str(path)))
                      if calls(fn, "Trace") or (name.startswith("Trace.") and calls(fn, "cls")))
    assert builders == ["trace.py:Trace.empty", "trace.py:parse_csv"]
    assert [f.name for f in fields(Trace) if "ndarray" in str(f.type)] == ["data"]


ROOT = SRC.parent.parent
# what runs mgres: its command line, the benchmark harness and the demos
ENTRY_POINTS = [SRC / "cli.py", *sorted((ROOT / "perfbench").glob("*.py")),
                *sorted((ROOT / "demos").glob("*.py"))]
# definitions in src/mgres that no entry point reaches, each commented with
# the code that reads it; src/ holds what mgres runs, so this stays empty
UNREACHED_ALLOWED: set[str] = set()


def module_aliases(trees) -> set[str]:
    """Names under which the files ``trees`` refer to an mgres module: its own
    name, ``mgres``, and each ``from . import <module> as <alias>``."""
    modules = {path.stem for path in SRC.glob("*.py")} | {"mgres"}
    return modules | {alias.asname for tree in trees for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      for alias in node.names if alias.name in modules and alias.asname}


def references(nodes, modules: set[str]) -> set[str]:
    """The names ``nodes`` refer to: ``f`` for a module-level name (a bare name,
    or an attribute of a module, as in ``ann.f``) and ``.m`` for an attribute
    of anything else, as in ``obj.m``.  A docstring is a constant: no name."""
    found = set()
    for node in (n for root in nodes for n in ast.walk(root)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add("." + node.attr)
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) in modules:
                found.add(node.attr)
    return found


def unreached_definitions() -> list[str]:
    """``module:name`` of each module-level function and class, and
    ``module:Class.method`` of each method, defined in src/mgres and not
    reached from ``ENTRY_POINTS``.  The reached set is a fixed point: an
    entry point's references reach definitions, whose own references reach
    more.  A module-level definition is reached by its name, a method by
    ``.name`` once its class is reached, a dunder method with its class.  A
    class's reach also follows its bases, decorators and class-level
    statements; a module-level assignment is followed when its name is
    reached, and any other module-level statement always."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) + ENTRY_POINTS}
    modules = module_aliases(trees.values())
    refs = set().union(*(references([trees[path]], modules) for path in ENTRY_POINTS))
    # (key, the name that reaches it, its class's key, the nodes it refers from, checked)
    defs = []
    for path, tree in trees.items():
        if path in ENTRY_POINTS or path.name == "__init__.py":
            continue
        for node in tree.body:
            key = f"{path.stem}:{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef):
                defs.append((key, node.name, None, [node], True))
            elif isinstance(node, ast.ClassDef):
                defs.append((key, node.name, None,
                             node.bases + node.keywords + node.decorator_list
                             + [s for s in node.body if not isinstance(s, ast.FunctionDef)], True))
                defs += [(f"{key}.{fn.name}", "." + fn.name, key, [fn], True)
                         for fn in node.body if isinstance(fn, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [(f"{key}{t.id}", t.id, None, [node], False)
                         for t in targets if isinstance(t, ast.Name)]
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                refs |= references([node], modules)
    reached: set[str] = set()
    while new := [(key, nodes) for key, name, cls, nodes, _ in defs if key not in reached
                  and (name in refs or re.fullmatch(r"\.__\w+__", name))
                  and (cls is None or cls in reached)]:
        for key, nodes in new:
            reached.add(key)
            refs |= references(nodes, modules)
    return sorted(key for key, *_, checked in defs if checked and key not in reached)


def test_src_holds_only_what_mgres_runs():
    # every function, class and method in src/mgres is reached from the CLI,
    # the benchmark or a demo; oracles that only tests read live in
    # tests/reference.py.  Methods are told apart from module-level names:
    # a method named like an unreached function does not reach it
    assert unreached_definitions() == sorted(UNREACHED_ALLOWED)


def unread_attributes() -> list[str]:
    """``module:Class.name`` of each attribute that a src/mgres class stores on
    ``self``, and of each property it defines, that no line of src/mgres,
    ``perfbench/`` or ``demos/`` reads as ``.name``; a store is no read.
    Dataclass fields are read through ``fields()``, so they are left out."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted({*SRC.glob("*.py"), *ENTRY_POINTS})}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    found = []
    for path, tree in trees.items():
        for cls in (node for node in tree.body if path.parent == SRC
                    and isinstance(node, ast.ClassDef)):
            stored = {node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and getattr(node.value, "id", None) == "self"}
            props = {fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)
                     and any(getattr(d, "id", None) == "property" for d in fn.decorator_list)}
            if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
                stored -= {s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)}
            found += [f"{path.stem}:{cls.name}.{name}" for name in sorted((stored | props) - read)]
    return found


def test_src_stores_only_what_mgres_reads():
    # every attribute a class in src/mgres stores, and every property, is read
    # by name where mgres runs; a value only tests read is computed for nothing
    assert unread_attributes() == []
