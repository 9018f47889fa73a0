"""Scenario configuration: YAML schema, validation, and built-in scenarios.

DG and bus numbering is 1-based in scenario files and 0-based internally.
``read_yaml`` is the one reader of a YAML file (a scenario, a matrix or a
training config), and this is the one module that imports ``yaml``: it
parses with libyaml (``yaml.CSafeLoader``) when PyYAML was built with it, and
with the pure-Python ``yaml.SafeLoader`` otherwise.  Both hand their nodes to
the same Python resolver and constructor, so they build the same objects; a
file that cannot be read or parsed is a ``ScenarioError`` of one line that
names the file (``cannot parse m.yaml: line 2, column 1: ...``).

One ``ConfigReader`` reads every mapping of a scenario, matrix or training
config under one type rule: a boolean is never a number, and bus and DG
numbers, ``max_epochs`` and ``seed`` must be whole.  A key left unread is
rejected at every level, naming it and its mapping (``unknown gains fields:
['c_V']``).  The defaults live on the dataclasses.

A scenario states each setting once.  ``controllers`` is the one key for the
controller of each DG; without it (``ScenarioConfig.controllers`` None) every
DG runs PI.  Every frequency is given in hertz, positive and finite.  A graph
edge has a positive weight and is given once.  An error in the plant, the
graph or an attack is a ``ScenarioError`` that keeps its component's text.

The built-in names reproduce the headline experiments, each a document that
``builtin_scenario`` hands to ``from_dict``:

    default              4-DG system, baseline controller, no attack
    default-nonperiodic  constant-multiple FDI (alpha = 0.5) on DG1's
                         voltage feedback at t = 2 s
    default-periodic     sinusoidal FDI (beta = 0.5, 60 Hz) at t = 2 s
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .ann import MlpParams, feature_channels, load_model
from .attack import STEP_TOLERANCE, AttackConfigError, AttackSpec, NonPeriodic, Periodic, \
    parse_target, resolve_channels
from .graph import CommGraph, GraphError, ring_graph
from .plant import (DgParams, Line, Load, MicrogridModel, NetworkError, NetworkParams,
                    admittance, default_model)
from .secondary import SecondaryGains

# the attacks of each built-in scenario, as a scenario file writes them
_DG1_FDI = {"target": "broadcast -> dg1.voltage", "tau": 2.0}
_BUILTIN_ATTACKS = {"default": [],
                    "default-nonperiodic": [dict(_DG1_FDI, kind="nonperiodic", alpha=0.5)],
                    "default-periodic": [dict(_DG1_FDI, kind="periodic", beta=0.5, freq_hz=60.0)]}
BUILTIN_SCENARIOS = tuple(_BUILTIN_ATTACKS)
CONTROLLER_NAMES = ("pi", "ann")   # the consensus baseline, and the MLP on a voltage set-point


class ScenarioError(ValueError):
    """Raised for any invalid or inconsistent configuration."""


@dataclass(frozen=True)
class LoadEvent:
    t: float
    bus: int      # 0-based
    r: float
    x: float

    def __post_init__(self):
        if not 0 <= self.t < math.inf:
            raise ScenarioError(f"load event time t must be finite and >= 0, got {self.t}")
        if not (math.isfinite(self.r) and math.isfinite(self.x)):
            raise ScenarioError(f"load event r and x must be finite, got r={self.r}, x={self.x}")

    def due(self, t: float) -> bool:
        """Whether the event acts at time t; one at k dt acts on step k."""
        return self.t <= t + STEP_TOLERANCE


@dataclass(frozen=True)
class RunStart:
    """A run's state before its sample step ``step`` as 5n floats: the phase
    angle per DG, the filtered [P, Q] per DG, then V_n per DG and w_n per DG.
    A run that starts here goes on as the run it was taken from, bit for bit."""
    step: int
    state: tuple[float, ...]

    @classmethod
    def flat(cls, n: int, v_ref: float, w_ref: float) -> RunStart:
        """Step 0 at rest: zero angles and powers, set-points at the references."""
        return cls(0, (0.0,) * 3 * n + (float(v_ref),) * n + (float(w_ref),) * n)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    duration: float
    model: MicrogridModel
    graph: CommGraph
    gains: SecondaryGains = SecondaryGains()
    controllers: tuple[str, ...] | None = None  # per DG, "pi" | "ann"; None: PI on every DG
    ann_model: MlpParams | None = None         # the model of every "ann" DG
    v_ref: float = 1.0
    w_ref: float = 2.0 * math.pi * 60.0
    dt: float = 1e-4
    sample_period: float = 1e-3
    load_events: tuple[LoadEvent, ...] = ()
    attacks: tuple[AttackSpec, ...] = ()
    start: RunStart | None = None              # None: the flat start at step 0

    def __post_init__(self):
        object.__setattr__(self, "controllers", ("pi",) * self.graph.n
                           if self.controllers is None else tuple(self.controllers))
        object.__setattr__(self, "load_events",
                           tuple(sorted(self.load_events, key=lambda e: e.t)))
        object.__setattr__(self, "attacks", tuple(self.attacks))
        self.validate()

    def validate(self) -> None:
        for name in ("duration", "dt", "sample_period", "v_ref", "w_ref"):
            if not 0 < (v := getattr(self, name)) < math.inf:
                raise ScenarioError(f"{name} must be positive and finite, got {v}")
        for name in ("duration", "sample_period"):   # a step count that overflows
            if math.isinf((v := getattr(self, name)) / self.dt):
                raise ScenarioError(f"{name} / dt is not finite: {v} / {self.dt}")
        if self.sample_period < self.dt:
            raise ScenarioError(
                f"sample period {self.sample_period} is below the integrator step {self.dt}")
        ratio = self.sample_period / self.dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ScenarioError(
                f"sample period {self.sample_period} must be an integer multiple of dt {self.dt}")
        if self.graph.n != self.model.n:
            raise ScenarioError(
                f"graph has {self.graph.n} DGs but the plant has {self.model.n}")
        if len(self.controllers) != self.graph.n:
            raise ScenarioError(
                f"need {self.graph.n} controller entries, got {len(self.controllers)}")
        for name in self.controllers:
            if name not in CONTROLLER_NAMES:
                raise ScenarioError(
                    f"unknown controller {name!r}; expected one of {CONTROLLER_NAMES}")
        if "ann" in self.controllers and self.ann_model is None:
            raise ScenarioError("controller 'ann' requires an ann_model file")
        loads_by_bus = {ld.bus for ld in self.model.network.loads}
        for ev in self.load_events:
            if ev.bus not in loads_by_bus:
                raise ScenarioError(f"load event targets bus {ev.bus + 1} with no load")
            try:
                admittance(ev.r, ev.x, f"load event at t={ev.t:g} s on bus {ev.bus + 1}")
            except NetworkError as exc:
                raise ScenarioError(str(exc)) from None
        channels = self.graph.channels()
        try:   # each ANN DG's voltage triple, and each attack's channels
            for i, name in enumerate(self.controllers):
                if name == "ann":
                    feature_channels(channels, i)
            for spec in self.attacks:
                resolve_channels(spec, channels)
        except ValueError as exc:   # AttackConfigError included
            raise ScenarioError(str(exc)) from exc
        if (s := self.start) is None:
            return
        n, last = self.graph.n, self.last_step
        if isinstance(s.step, bool) or not isinstance(s.step, int) or not 0 <= s.step <= last:
            raise ScenarioError(f"run start step {s.step!r} must be a whole number "
                                f"in [0, {last}]")
        if s.step % self.sample_stride:
            raise ScenarioError(f"run start step {s.step} is not a sample step "
                                f"(every {self.sample_stride} steps)")
        if len(s.state) != 5 * n:
            raise ScenarioError(f"run start must hold {5 * n} values, got {len(s.state)}")

    @property
    def sample_stride(self) -> int:
        return int(round(self.sample_period / self.dt))

    @property
    def last_step(self) -> int:
        """The step at t = duration."""
        return int(round(self.duration / self.dt))

    def first_step(self, due, t: float) -> int:
        """The first step k <= last_step with ``due(k * dt)``, else last_step + 1,
        by a walk from t / dt: ``due`` holds on one stretch from about t."""
        dt, last = self.dt, self.last_step
        k = math.ceil(min(t / dt, last + 1))
        while k > 0 and due((k - 1) * dt):
            k -= 1
        while k <= last and not due(k * dt):
            k += 1
        return k

    @property
    def n_steps(self) -> int:
        """Steps this run simulates after its first: from its start to ``last_step``."""
        return self.last_step - (self.start.step if self.start is not None else 0)

    def shared_until(self, other: ScenarioConfig) -> int:
        """The last sample step at or before the first step k at which this
        run and ``other``'s can differ (their last step if they cannot); 0 if
        they share no step past their start, as configs that differ in a field
        but ``scenario_id``, ``load_events`` and ``attacks`` do.  Otherwise the
        stretch ends where an attack that only one has (past the common prefix
        of the attack lists: gains multiply in order) is active at t = k dt, or
        where the load events applied by step k differ: up to there both runs
        apply the same events and gains, so they are one run bit for bit.
        """
        if any(getattr(self, f.name) != getattr(other, f.name) for f in fields(self)
               if f.name not in ("scenario_id", "load_events", "attacks")):
            return 0
        i, j = _common(self.attacks, other.attacks), _common(self.load_events, other.load_events)
        steps = [self.first_step(s.active, s.tau) for s in self.attacks[i:] + other.attacks[i:]]
        steps += [self.first_step(e.due, e.t)
                  for e in self.load_events[j:j + 1] + other.load_events[j:j + 1]]
        first = min(steps + [self.last_step])
        first -= first % self.sample_stride
        return first if first > (self.start.step if self.start is not None else 0) else 0


def _common(a: tuple, b: tuple) -> int:
    """The length of the common prefix of two tuples."""
    return next((j for j, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def plan_runs(configs: list[ScenarioConfig]) -> list[tuple[int, int | None]]:
    """(start step, index of the source config) per config, in order, (0,
    None) for a full run: the source is the earlier config with the longest
    ``ScenarioConfig.shared_until``, the earliest of equals, among those whose
    own planned start is at or before its end."""
    plan: list[tuple[int, int | None]] = []
    for cfg in configs:
        best: tuple[int, int | None] = (0, None)
        for i, src in enumerate(configs[:len(plan)]):
            step = src.shared_until(cfg)
            if step > best[0] and plan[i][0] <= step:
                best = (step, i)
        plan.append(best)
    return plan


def _as(v, kind: type, what: str):
    """``v`` as a float or a whole number, never from a boolean, or as an
    instance of ``kind`` (dict, list, str or object); ``what`` names the value
    in the error."""
    if kind not in (int, float):
        if isinstance(v, kind):
            return v
    elif not isinstance(v, bool):
        try:
            if kind is float:
                return float(v)
            if float(v).is_integer():
                return v if isinstance(v, int) else int(float(v))
        except (TypeError, ValueError, OverflowError):
            pass
    noun = {float: "a number", int: "a whole number", dict: "a mapping",
            list: "a list", str: "a string"}[kind]
    raise ScenarioError(f"{what} must be {noun}, got {v!r}")


_REQUIRED = object()


class ConfigReader:
    """One mapping of a config file, named for its errors (``"gains"``,
    ``"plant dg 2"``, ``"matrix"``, ``"training config"``, ...).

    ``read`` hands out each key once through ``_as``.  ``close`` then rejects
    the keys left unread and, after them, the required keys that were absent
    (read as None until then), so a misspelt key is reported by its name.
    """

    def __init__(self, d, name: str):
        self.name = name
        self._left = dict(_as(d, dict, name))
        self._missing: list[str] = []

    def __contains__(self, key) -> bool:
        return key in self._left

    def read(self, key: str, kind: type = float, default=_REQUIRED):
        if key in self._left:
            return _as(self._left.pop(key), kind, f"field {key!r} in {self.name}")
        if default is _REQUIRED:
            self._missing.append(key)
            return None
        return default

    def numbers(self, key: str, kind: type = float) -> tuple | None:
        """The required list ``key``, each entry through ``_as``."""
        items = self.read(key, list)
        return None if items is None else tuple(
            _as(v, kind, f"{self.name} {key} entry {j + 1}") for j, v in enumerate(items))

    def close(self) -> None:
        if self._left:
            raise ScenarioError(f"unknown {self.name} fields: {sorted(map(str, self._left))}")
        if self._missing:
            raise ScenarioError(f"missing required field {self._missing[0]!r} in {self.name}")

    def build(self, cls, **defaults):
        """The dataclass ``cls`` from the keys that name its fields, each read
        as the type of the field's default (a tuple as a list of numbers), over
        ``defaults`` and then the dataclass's own defaults; then ``close``."""
        values = dict(defaults)
        for f in fields(cls):
            if f.name in self:
                kind = type(f.default)
                values[f.name] = self.numbers(f.name) if kind is tuple else self.read(f.name, kind)
        self.close()
        return cls(**values)


# 1-based bus and DG numbers are whole numbers
_INDEX_FIELDS = ("from", "to", "bus")


def _entries(items: list, where: str, *keys: str) -> list[list]:
    """The required numeric ``keys`` of each mapping in a list, in order."""
    out = []
    for k, e in enumerate(items):
        if not isinstance(e, dict):   # a bare value holds none of the keys
            raise ScenarioError(f"missing required field {keys[0]!r} in {where} {k + 1}, "
                                f"which must be a mapping, got {e!r}")
        entry = ConfigReader(e, f"{where} {k + 1}")
        out.append([entry.read(key, int if key in _INDEX_FIELDS else float) for key in keys])
        entry.close()
    return out


def _rad_s(hz: float, key: str) -> float:
    """The file's frequency ``key``, given in hertz, in rad/s."""
    if not 0 < hz < math.inf:
        raise ScenarioError(f"{key} must be positive and finite, got {hz}")
    if math.isinf(w := 2.0 * math.pi * hz):
        raise ScenarioError(f"{key} {hz} overflows in rad/s")
    return w


def _parse_attack(d, k: int) -> AttackSpec:
    m = ConfigReader(d, f"attack {k + 1}")
    kind_name = m.read("kind", str, None)
    if kind_name == "nonperiodic":
        args = (m.read("alpha"),)
    elif kind_name == "periodic":
        args = (m.read("beta"), m.read("freq_hz"))
    else:
        raise ScenarioError(f"{m.name} kind must be nonperiodic or periodic, got {kind_name!r}")
    target, tau, end = m.read("target", str), m.read("tau"), m.read("end", float, None)
    m.close()
    if kind_name == "periodic":   # the file gives hertz, Periodic takes rad/s
        args = (args[0], _rad_s(args[1], "attack freq_hz"))
    try:
        src, dst, sig = parse_target(target)
        kind = NonPeriodic(*args) if kind_name == "nonperiodic" else Periodic(*args)
        return AttackSpec(src=src, dst=dst, signal=sig, kind=kind, tau=tau, end=end)
    except AttackConfigError as exc:
        raise ScenarioError(str(exc)) from exc


def _parse_plant(d) -> MicrogridModel:
    m = ConfigReader(d, "plant")
    n_bus, dg_bus = m.read("n_bus", int), m.numbers("dg_bus", int)
    dgs, lines, loads = (m.read(key, list) for key in ("dgs", "lines", "loads"))
    m.close()
    try:   # a component's ValueError (NetworkError included) keeps its text
        lines = tuple(Line(a - 1, b - 1, r, x) for a, b, r, x in
                      _entries(lines, "plant line", "from", "to", "r", "x"))
        loads = tuple(Load(b - 1, r, x) for b, r, x in
                      _entries(loads, "plant load", "bus", "r", "x"))
        net = NetworkParams(n_bus=n_bus, lines=lines, loads=loads,
                            dg_bus=tuple(b - 1 for b in dg_bus))
        return MicrogridModel(dgs=[ConfigReader(e, f"plant dg {k + 1}").build(DgParams)
                                   for k, e in enumerate(dgs)], network=net)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _parse_graph(d) -> CommGraph:
    m = ConfigReader(d, "graph")
    edges, pinning = m.read("edges", list), m.numbers("pinning")
    m.close()
    n = len(pinning)
    adj = np.zeros((n, n))
    for k, e in enumerate(edges):
        if not isinstance(e, (list, tuple)) or len(e) not in (2, 3):
            raise ScenarioError(
                f"graph edge {k + 1} must be [from, to] or [from, to, weight], got {e!r}")
        where = f"graph edge {k + 1}"
        frm, to = _as(e[0], int, f"{where} from"), _as(e[1], int, f"{where} to")
        w = _as(e[2], float, f"{where} weight") if len(e) == 3 else 1.0
        if not (1 <= frm <= n and 1 <= to <= n):
            raise ScenarioError(f"graph edge ({frm}, {to}) references an unknown DG")
        if w <= 0:   # a zero weight would drop the edge's channels
            raise ScenarioError(f"{where} weight must be positive, got {w:g}")
        if adj[to - 1, frm - 1]:
            raise ScenarioError(f"graph edge ({frm}, {to}) is given twice")
        adj[to - 1, frm - 1] = w  # information flows frm -> to
    try:
        return CommGraph(adj, np.array(pinning))
    except GraphError as exc:
        raise ScenarioError(f"invalid communication graph: {exc}") from exc


def from_dict(d: dict, scenario_id: str = "scenario", base_dir: str = ".",
              ann_model: str | None = None) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed YAML mapping.  An
    ``ann_model`` path replaces the file's ``controllers`` with ``"ann"`` on
    DG1 and ``"pi"`` elsewhere, and the file's model; the model is read here,
    once, into the config when some DG runs ``"ann"``."""
    top = ConfigReader(d, "scenario")
    kw = {"duration": top.read("duration"), "dt": top.read("dt", float, None),
          "sample_period": top.read("sample_period", float, None)}
    plant, graph = top.read("plant", dict, None), top.read("graph", dict, None)
    refs = ConfigReader(top.read("references", dict, {}), "references")
    gains = ConfigReader(top.read("gains", dict, {}), "gains")
    controllers = top.read("controllers", list, None)
    file_model = top.read("ann_model", object, None)
    events = top.read("load_events", list, [])
    attacks = top.read("attacks", list, [])
    scenario_id = str(top.read("id", object, scenario_id))
    top.close()

    kw["v_ref"], hz = refs.read("voltage", float, None), refs.read("frequency_hz", float, None)
    refs.close()
    if (v := kw["v_ref"]) is not None and not 0 < v < math.inf:   # validate would name v_ref
        raise ScenarioError(f"references voltage must be positive and finite, got {v}")
    if hz is not None:
        kw["w_ref"] = _rad_s(hz, "references frequency_hz")
    model = default_model() if plant is None else _parse_plant(plant)
    graph = ring_graph(model.n) if graph is None else _parse_graph(graph)

    if ann_model is not None:   # the ANN on DG1, the attacked DG
        controllers = ["ann"] + ["pi"] * (graph.n - 1)
    elif file_model is not None:   # an absolute path is kept as it is
        ann_model = os.path.join(base_dir, _as(file_model, str, "field 'ann_model' in scenario"))
    if "ann" in (controllers or ()) and ann_model is not None:
        try:
            kw["ann_model"] = load_model(ann_model)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None

    return ScenarioConfig(
        scenario_id=scenario_id, model=model, graph=graph,
        gains=gains.build(SecondaryGains), controllers=controllers,
        load_events=tuple(LoadEvent(t=t, bus=b - 1, r=r, x=x) for t, b, r, x in
                          _entries(events, "load event", "t", "bus", "r", "x")),
        attacks=tuple(_parse_attack(a, k) for k, a in enumerate(attacks)),
        **{key: v for key, v in kw.items() if v is not None})


def builtin_scenario(name: str, ann_model: str | None = None,
                     duration: float = 4.0) -> ScenarioConfig:
    """The built-in scenario ``name``, built by ``from_dict`` from its
    document; an ``ann_model`` path puts the ANN on DG1."""
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError(f"unknown built-in scenario {name!r}; "
                            f"available: {BUILTIN_SCENARIOS}")
    return from_dict({"duration": duration, "attacks": _BUILTIN_ATTACKS[name]},
                     scenario_id=name, ann_model=ann_model)


# libyaml parses a short scenario file about seven times faster than the
# pure-Python parser (0.15 against 1.1 ms on a 2-core x86-64 VM)
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml(path: str, what: str):
    """The YAML document in the file ``path``, the ``what`` of a command
    (``"scenario"``, ``"matrix"``, ``"training config"``); None if the file
    holds no document.  A file that cannot be read or parsed raises a
    ScenarioError of one line that names it."""
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:   # a directory, unreadable
        raise ScenarioError(f"cannot read {what} {path}: {exc.strerror}") from exc
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        context = f" ({exc.context})" if exc.context else ""
        raise ScenarioError(f"cannot parse {path}: {where}{exc.problem}{context}") from exc
    except (yaml.YAMLError, ValueError) as exc:   # bad encoding, or an !!int or date value
        raise ScenarioError(f"cannot parse {path}: {str(exc).splitlines()[0]}") from exc


def load_scenario(source: str, ann_model: str | None = None) -> ScenarioConfig:
    """Load a scenario by built-in name or YAML file path."""
    if source in BUILTIN_SCENARIOS:
        return builtin_scenario(source, ann_model=ann_model)
    if not os.path.exists(source):
        raise ScenarioError(f"scenario {source!r} is neither a built-in name "
                            f"({', '.join(BUILTIN_SCENARIOS)}) nor a file")
    return from_dict(read_yaml(source, "scenario"),
                     scenario_id=os.path.splitext(os.path.basename(source))[0],
                     base_dir=os.path.dirname(os.path.abspath(source)), ann_model=ann_model)
