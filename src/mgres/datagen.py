"""Training-data generation: the load-step x attack-case scenario matrix.

Each matrix cell is a 4 s baseline-controller run sampled at 1 ms.  Five
step load changes are crossed with {normal, non-periodic alpha in
{0.25, 0.5}, periodic beta in {0.25, 0.5} at 60 Hz} FDI cases on DG1's
voltage feedback, attack onset at t = 2 s.  Every attacked run is paired
with the normal run at the same load level, which supplies the clean
reference targets for training.

``gen_data`` resumes each cell from the earlier cell whose run it matches
longest, as ``scenario.plan_runs`` plans it: that run hands out its state at
the last sample step of the shared stretch (``run_scenario``'s
``fork_steps``), the cell runs from there (``ScenarioConfig.start``), and its
CSV is that run's CSV up to the fork, copied as text, followed by the cell's
own rows (the head of ``export_csv``): the bytes of a run from t = 0.  On the
default matrix a later load factor's normal cell resumes from the first load
factor's at the load step, and each attacked cell from its own load factor's
normal cell at the onset: 560 025 plant steps instead of 1 000 025, and
56 025 formatted rows instead of 100 025.  ``load_runs`` reads a head back
from the run it was copied from (``parse_csv``'s ``head``): 56 025 parsed
rows, not 100 025.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, replace
from itertools import islice

from .ann import DatasetError
from .attack import AttackSpec, NonPeriodic, Periodic
from .graph import ring_graph
from .plant import default_model
from .scenario import LoadEvent, RunStart, ScenarioConfig, ScenarioError, plan_runs
from .simulate import run_scenario
from .trace import Trace, export_csv, parse_csv, write_text

DEFAULT_LOAD_FACTORS = (0.7, 0.85, 1.0, 1.15, 1.3)
DEFAULT_ALPHAS = (0.25, 0.5)
DEFAULT_BETAS = (0.25, 0.5)
BASE_LOAD = 0.8 + 0.3j


# what each number of a matrix must be, and its test
_MATRIX_RANGES = {
    "load_factors": ("positive and finite", lambda v: 0 < v < math.inf),
    "alphas": ("finite", math.isfinite),
    "betas": ("finite", math.isfinite),
    "freq_hz": ("positive and finite, also in rad/s", lambda v: 0 < 2 * math.pi * v < math.inf),
    "tau": ("finite and >= 0", lambda v: 0 <= v < math.inf),
    "step_time": ("finite and >= 0", lambda v: 0 <= v < math.inf),
    "duration": ("positive and finite", lambda v: 0 < v < math.inf),
}


@dataclass(frozen=True)
class MatrixSpec:
    load_factors: tuple[float, ...] = DEFAULT_LOAD_FACTORS
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    betas: tuple[float, ...] = DEFAULT_BETAS
    freq_hz: float = 60.0
    tau: float = 2.0
    step_time: float = 1.0
    duration: float = 4.0

    def __post_init__(self):
        if not self.load_factors:   # no cell: train would find no run
            raise ScenarioError("matrix load_factors must hold at least one value")
        for key, (rule, ok) in _MATRIX_RANGES.items():
            value = getattr(self, key)
            for v in value if isinstance(value, tuple) else (value,):
                if not ok(v):
                    raise ScenarioError(f"matrix {key} must be {rule}, got {v}")
        # an onset or a load step at or past the end leaves its cells copies of others
        for key, what, cells in (("tau", "an attack case", self.alphas + self.betas),
                                 ("step_time", "two or more load factors", self.load_factors[1:])):
            if cells and (v := getattr(self, key)) >= self.duration:
                raise ScenarioError(f"matrix {key} {v} must be less than duration "
                                    f"{self.duration} when the matrix has {what}")
        # a run id prints each value with :g; two values that print alike would
        # share one id and one CSV, and pair attacked runs with the wrong clean run
        for key in ("load_factors", "alphas", "betas"):
            values = getattr(self, key)
            names = [f"{v:g}" for v in values]
            for j, name in enumerate(names):
                if name in names[:j]:
                    raise ScenarioError(f"matrix {key} {values[names.index(name)]} and "
                                        f"{values[j]} both print as {name} in a run id")


def _attack_cases(spec: MatrixSpec) -> list[tuple[str, AttackSpec | None]]:
    kinds = ([(f"nonperiodic-a{a:g}", NonPeriodic(alpha=a)) for a in spec.alphas]
             + [(f"periodic-b{b:g}", Periodic(beta=b, omega=2 * math.pi * spec.freq_hz))
                for b in spec.betas])
    return [("normal", None)] + [
        (name, AttackSpec(src="broadcast", dst=0, signal="voltage", kind=kind, tau=spec.tau))
        for name, kind in kinds]


def training_matrix(spec: MatrixSpec = MatrixSpec()) -> list[tuple[ScenarioConfig, str | None]]:
    """Scenario list for gen-data: (config, id of the paired clean run).

    Every cell shares one plant and one graph (both frozen, the graph's
    arrays read-only, compared by identity), so cells can share runs, the
    plant's initial network builds its solver constants once per matrix and
    the graph derives its channel layout once per matrix.
    """
    model, graph = default_model(), ring_graph(4)
    cases = _attack_cases(spec)   # the same for every load factor
    out = []
    for f in spec.load_factors:
        # step the load impedances so delivered power scales roughly by f
        events = tuple(LoadEvent(t=spec.step_time, bus=bus, r=BASE_LOAD.real / f,
                                 x=BASE_LOAD.imag / f) for bus in (0, 2))
        clean_id = f"load{f:g}-normal"
        for case_name, atk in cases:
            cfg = ScenarioConfig(
                scenario_id=f"load{f:g}-{case_name}",
                duration=spec.duration,
                model=model,
                graph=graph,
                load_events=events,
                attacks=(atk,) if atk is not None else (),
            )
            out.append((cfg, None if atk is None else clean_id))
    return out


def gen_data(out_dir: str, matrix: MatrixSpec = MatrixSpec()) -> list[dict]:
    """Run the scenario matrix and write one CSV per run plus a manifest.

    Each cell resumes from its planned source's fork (module docstring); one
    whose source failed or diverged before the fork runs in full.  A cell's
    ValueError or OSError is its manifest status; partial output is kept.  Each
    entry also records the steps the cell simulated and the cell and step it
    resumed from (``resumed_from``, null for a full run).  Returns the
    manifest entries.
    """
    cells = training_matrix(matrix)
    plan = plan_runs([cfg for cfg, _ in cells])
    os.makedirs(out_dir, exist_ok=True)
    forks: list[dict[int, RunStart]] = []   # per cell, the forks its run handed out
    entries = []
    for k, ((cfg, clean_id), (step, src)) in enumerate(zip(cells, plan)):
        entry = {
            "id": cfg.scenario_id,
            "file": cfg.scenario_id + ".csv",
            "attacked": bool(cfg.attacks),
            "clean_ref": clean_id if clean_id is not None else cfg.scenario_id,
            "v_ref": cfg.v_ref,
            "w_ref": cfg.w_ref,
            "resumed_from": None,
            "steps": 0,
        }
        forks.append({})
        try:
            fork = forks[src].get(step) if src is not None else None
            head = ""
            if fork is not None:
                cfg = replace(cfg, start=fork)
                with open(os.path.join(out_dir, entries[src]["file"])) as fh:
                    head = "".join(islice(fh, step // cfg.sample_stride + 1))
                entry["resumed_from"] = {"id": entries[src]["id"], "step": step}
            # the run hands out its state at each step that a later cell resumes from
            trace = run_scenario(cfg, fork_steps={s for s, i in plan if i == k})
            end = round(trace.diverged_time / cfg.dt) if trace.diverged else cfg.last_step
            entry["steps"] = end - (fork.step if fork is not None else 0) + 1
            entry["status"] = (f"diverged at t={trace.diverged_time:.6f}" if trace.diverged
                               else "ok")
            export_csv(trace, os.path.join(out_dir, entry["file"]), head=head)
            forks[-1] = trace.forks   # a cell whose CSV was not written hands out none
        except (ValueError, OSError) as exc:  # keep going; a programming error ends the run
            entry["status"] = f"error: {exc}"
        entries.append(entry)
    write_text(os.path.join(out_dir, "manifest.json"), json.dumps(entries, indent=2))
    return entries


# the fields load_runs reads from each manifest entry, and their JSON types
_MANIFEST_FIELDS = {"id": str, "file": str, "status": str, "clean_ref": str,
                    "v_ref": (int, float), "w_ref": (int, float)}


def load_runs(data_dir: str) -> list[tuple[Trace, Trace, str]]:
    """Read a gen-data directory back into (trace, clean_trace, id) tuples.

    Each ok run's CSV is parsed once.  An entry's ``resumed_from`` is a hint:
    when it names a run read before, the lines the CSV shares with that run's
    take its rows (``parse_csv``'s ``head``); a wrong one costs only time.
    """
    path = os.path.join(data_dir, "manifest.json")
    try:
        with open(path) as fh:
            entries = json.load(fh)
    except ValueError as exc:   # not UTF-8, or not JSON
        raise DatasetError(f"cannot parse {path}: {exc}") from None
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise DatasetError(f"{path} must hold a list of run mappings")
    first: dict[str, int] = {}   # id -> number of the run that first has it
    for k, e in enumerate(entries, start=1):
        for name, kind in _MANIFEST_FIELDS.items():
            v = e.get(name)
            if not isinstance(v, kind) or isinstance(v, bool):   # a bool is an int
                noun = "a string" if kind is str else "a number"
                raise DatasetError(f"{path}: run {k} field {name!r} must be {noun}, got {v!r}")
            if kind is not str and not abs(v) <= sys.float_info.max:   # nan, inf, 10**400
                raise DatasetError(f"{path}: run {k} field {name!r} must be finite, got {v!r}")
        if (j := first.setdefault(e["id"], k)) != k:
            raise DatasetError(f"{path}: runs {j} and {k} have the same id {e['id']!r}")
    ok = {e["id"]: e for e in entries if e["status"] == "ok"}
    read: dict[str, tuple[str, Trace]] = {}   # id -> (path, trace) of each run read so far
    for e in ok.values():
        src = e.get("resumed_from")
        src = src.get("id") if isinstance(src, dict) else None
        csv = os.path.join(data_dir, e["file"])
        try:
            tr = parse_csv(csv, head=read.get(src) if isinstance(src, str) else None)
        except OSError as exc:   # missing, a directory, unreadable
            raise DatasetError(f"{path}: run {e['id']!r} file {e['file']!r}: "
                               f"{exc.strerror}") from None
        tr.v_ref = e["v_ref"]
        tr.w_ref = e["w_ref"]
        read[e["id"]] = csv, tr
    # an attacked run whose clean counterpart failed is skipped
    return [(read[e["id"]][1], read[e["clean_ref"]][1], e["id"])
            for e in ok.values() if e["clean_ref"] in read]
