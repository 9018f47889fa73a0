"""Scenario configuration: YAML schema, validation, and built-in scenarios.

DG and bus numbering is 1-based in scenario files and 0-based internally.
The built-in names reproduce the headline experiments:

    default              4-DG system, baseline controller, no attack
    default-nonperiodic  constant-multiple FDI (alpha = 0.5) on DG1's
                         voltage feedback at t = 2 s
    default-periodic     sinusoidal FDI (beta = 0.5, 60 Hz) at t = 2 s
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .attack import AttackConfigError, AttackSpec, NonPeriodic, Periodic, \
    parse_target, resolve_channels
from .graph import CommGraph, GraphError, ring_graph
from .plant import DgParams, Line, Load, MicrogridModel, NetworkParams, default_model
from .secondary import SecondaryGains, check_controller_name

BUILTIN_SCENARIOS = ("default", "default-nonperiodic", "default-periodic")


class ScenarioError(ValueError):
    """Raised for any invalid or inconsistent scenario configuration."""


@dataclass(frozen=True)
class LoadEvent:
    t: float
    bus: int      # 0-based
    r: float
    x: float

    def __post_init__(self):
        if self.t < 0:
            raise ScenarioError(f"load event time must be >= 0, got {self.t}")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    duration: float
    model: MicrogridModel
    graph: CommGraph
    gains: SecondaryGains = SecondaryGains()
    controllers: tuple[str, ...] = ()          # per DG, "pi" | "ann"
    ann_model_path: str | None = None
    v_ref: float = 1.0
    w_ref: float = 2.0 * math.pi * 60.0
    dt: float = 1e-4
    sample_period: float = 1e-3
    load_events: tuple[LoadEvent, ...] = ()
    attacks: tuple[AttackSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "controllers",
                           tuple(self.controllers) or ("pi",) * self.graph.n)
        object.__setattr__(self, "load_events",
                           tuple(sorted(self.load_events, key=lambda e: e.t)))
        object.__setattr__(self, "attacks", tuple(self.attacks))
        self.validate()

    def validate(self) -> None:
        if self.duration <= 0:
            raise ScenarioError(f"duration must be positive, got {self.duration}")
        if self.dt <= 0:
            raise ScenarioError(f"dt must be positive, got {self.dt}")
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
            check_controller_name(name)
        if "ann" in self.controllers and self.ann_model_path is not None:
            if not os.path.exists(self.ann_model_path):
                raise ScenarioError(
                    f"ANN model file not found: {self.ann_model_path}")
        loads_by_bus = {ld.bus for ld in self.model.network.loads}
        for ev in self.load_events:
            if ev.bus not in loads_by_bus:
                raise ScenarioError(f"load event targets bus {ev.bus + 1} with no load")
            if ev.r == 0 and ev.x == 0:
                raise ScenarioError(
                    f"load event at t={ev.t:g} s on bus {ev.bus + 1} has zero impedance")
        for spec in self.attacks:
            try:
                resolve_channels(spec, self.graph.channels())
            except AttackConfigError as exc:
                raise ScenarioError(str(exc)) from exc

    @property
    def sample_stride(self) -> int:
        return int(round(self.sample_period / self.dt))

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


def _require(d: dict, key: str, where: str):
    if not isinstance(d, dict) or key not in d:
        raise ScenarioError(f"missing required field {key!r} in {where}")
    return d[key]


def _as(v, kind: type, what: str):
    """``v`` as a float or a whole number, or as a dict, list or str; ``what``
    names the value in the error."""
    try:
        if kind is float:
            return float(v)
        if kind is int and float(v).is_integer():
            return int(float(v))
        if isinstance(v, kind):
            return v
    except (TypeError, ValueError, OverflowError):
        pass
    noun = {float: "a number", int: "a whole number", dict: "a mapping",
            list: "a list", str: "a string"}[kind]
    raise ScenarioError(f"{what} must be {noun}, got {v!r}")


def _field(d: dict, key: str, where: str, kind: type = float, default=None):
    """``d[key]`` (``default``, if given, when absent) through ``_as``."""
    v = _require(d, key, where) if default is None else d.get(key, default)
    return _as(v, kind, f"field {key!r} in {where}")


# 1-based bus and DG numbers are whole numbers
_INDEX_FIELDS = ("from", "to", "bus")


def _entries(items: list, where: str, *fields: str) -> list[list]:
    """The required numeric ``fields`` of each entry of a list, in order."""
    return [[_field(e, f, f"{where} {k + 1}", int if f in _INDEX_FIELDS else float)
             for f in fields] for k, e in enumerate(items)]


def _parse_attack(d: dict) -> AttackSpec:
    target = _require(d, "target", "attack")
    src, dst, sig = parse_target(str(target))
    where = f"attack {target!r}"
    kind_name = str(_require(d, "kind", where))
    if kind_name == "nonperiodic":
        kind = NonPeriodic(alpha=_field(d, "alpha", where))
    elif kind_name == "periodic":
        if "freq_hz" in d:
            omega = 2.0 * math.pi * _field(d, "freq_hz", where)
        elif "omega" in d:
            omega = _field(d, "omega", where)
        else:
            raise ScenarioError(f"periodic attack {target!r} needs freq_hz or omega")
        kind = Periodic(beta=_field(d, "beta", where), omega=omega)
    else:
        raise ScenarioError(f"unknown attack kind {kind_name!r} (nonperiodic|periodic)")
    try:
        return AttackSpec(src=src, dst=dst, signal=sig, kind=kind,
                          tau=_field(d, "tau", where),
                          end=_field(d, "end", where) if "end" in d else None)
    except AttackConfigError as exc:
        raise ScenarioError(str(exc)) from exc


def _parse_plant(d: dict) -> MicrogridModel:
    dgs = []
    for k, e in enumerate(_field(d, "dgs", "plant", list)):
        if not isinstance(e, dict):
            raise ScenarioError(f"plant dg {k + 1} must be a mapping, got {e!r}")
        where = f"plant dg {k + 1}"
        dgs.append(DgParams(m_p=_field(e, "m_p", where, default=3.77),
                            n_q=_field(e, "n_q", where, default=0.04),
                            omega_c=_field(e, "omega_c", where, default=31.4)))
    lines = tuple(Line(a - 1, b - 1, r, x) for a, b, r, x in _entries(
        _field(d, "lines", "plant", list), "plant line", "from", "to", "r", "x"))
    loads = tuple(Load(b - 1, r, x) for b, r, x in _entries(
        _field(d, "loads", "plant", list), "plant load", "bus", "r", "x"))
    dg_bus = tuple(_as(b, int, f"plant dg_bus entry {k + 1}") - 1
                   for k, b in enumerate(_field(d, "dg_bus", "plant", list)))
    net = NetworkParams(n_bus=_field(d, "n_bus", "plant", int), lines=lines, loads=loads,
                        dg_bus=dg_bus)
    return MicrogridModel(dgs=dgs, network=net)


def _parse_graph(d: dict) -> CommGraph:
    edges = _field(d, "edges", "graph", list)
    pinning = np.array([_as(v, float, f"graph pinning entry {k + 1}")
                        for k, v in enumerate(_field(d, "pinning", "graph", list))])
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
        adj[to - 1, frm - 1] = w  # information flows frm -> to
    try:
        return CommGraph(adj, pinning)
    except GraphError as exc:
        raise ScenarioError(f"invalid communication graph: {exc}") from exc


def from_dict(d: dict, scenario_id: str = "scenario",
              base_dir: str = ".") -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed YAML mapping."""
    if not isinstance(d, dict):
        raise ScenarioError("scenario file must contain a mapping at top level")
    unknown = set(d) - {"duration", "dt", "sample_period", "references",
                        "controller", "controllers", "ann_model", "gains",
                        "plant", "graph", "load_events", "attacks", "id"}
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")

    model = _parse_plant(d["plant"]) if "plant" in d else default_model()
    graph = _parse_graph(d["graph"]) if "graph" in d else ring_graph(model.n)

    refs = _field(d, "references", "scenario", dict, {})
    v_ref = _field(refs, "voltage", "references", default=1.0)
    if "frequency_hz" in refs:
        w_ref = 2.0 * math.pi * _field(refs, "frequency_hz", "references")
    else:
        w_ref = _field(refs, "frequency", "references", default=2.0 * math.pi * 60.0)

    if "controllers" in d:
        controllers = tuple(str(c) for c in _field(d, "controllers", "scenario", list))
    else:
        # shorthand: "ann" puts the ANN on DG1 only, everyone else on baseline
        name = str(d.get("controller", "pi"))
        check_controller_name(name)
        controllers = (name,) + ("pi",) * (graph.n - 1) if name == "ann" \
            else ("pi",) * graph.n

    ann_model = d.get("ann_model")
    if ann_model is not None:   # an absolute path is kept as it is
        ann_model = os.path.join(base_dir, _field(d, "ann_model", "scenario", str))
    if "ann" in controllers and ann_model is None:
        raise ScenarioError("controller 'ann' requires an ann_model file")

    gains_d = _field(d, "gains", "scenario", dict, {})
    gains = SecondaryGains(c_v=_field(gains_d, "c_v", "gains", default=5.0),
                           c_w=_field(gains_d, "c_w", "gains", default=5.0))

    events = tuple(LoadEvent(t=t, bus=b - 1, r=r, x=x) for t, b, r, x in
                   _entries(_field(d, "load_events", "scenario", list, []),
                            "load event", "t", "bus", "r", "x"))
    attacks = tuple(_parse_attack(a) for a in _field(d, "attacks", "scenario", list, []))

    return ScenarioConfig(
        scenario_id=str(d.get("id", scenario_id)),
        duration=_field(d, "duration", "scenario"),
        dt=_field(d, "dt", "scenario", default=1e-4),
        sample_period=_field(d, "sample_period", "scenario", default=1e-3),
        v_ref=v_ref, w_ref=w_ref,
        model=model, graph=graph, gains=gains,
        controllers=controllers, ann_model_path=ann_model,
        load_events=events, attacks=attacks,
    )


def builtin_scenario(name: str, ann_model: str | None = None,
                     duration: float = 4.0) -> ScenarioConfig:
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError(f"unknown built-in scenario {name!r}; "
                            f"available: {BUILTIN_SCENARIOS}")
    attacks: tuple[AttackSpec, ...] = ()
    if name == "default-nonperiodic":
        attacks = (AttackSpec(src="broadcast", dst=0, signal="voltage",
                              kind=NonPeriodic(alpha=0.5), tau=2.0),)
    elif name == "default-periodic":
        attacks = (AttackSpec(src="broadcast", dst=0, signal="voltage",
                              kind=Periodic(beta=0.5, omega=2.0 * math.pi * 60.0),
                              tau=2.0),)
    controllers = ("pi",) * 4
    if ann_model is not None:
        controllers = ("ann", "pi", "pi", "pi")
    return ScenarioConfig(scenario_id=name, duration=duration,
                          model=default_model(), graph=ring_graph(4),
                          controllers=controllers, ann_model_path=ann_model,
                          attacks=attacks)


def load_scenario(source: str, ann_model: str | None = None) -> ScenarioConfig:
    """Load a scenario by built-in name or YAML file path."""
    if source in BUILTIN_SCENARIOS:
        return builtin_scenario(source, ann_model=ann_model)
    if not os.path.exists(source):
        raise ScenarioError(f"scenario {source!r} is neither a built-in name "
                            f"({', '.join(BUILTIN_SCENARIOS)}) nor a file")
    with open(source) as fh:
        try:
            d = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"cannot parse {source}: {exc}") from exc
    cfg = from_dict(d, scenario_id=os.path.splitext(os.path.basename(source))[0],
                    base_dir=os.path.dirname(os.path.abspath(source)))
    if ann_model is not None:
        cfg = replace(cfg, controllers=("ann",) + ("pi",) * (cfg.graph.n - 1),
                      ann_model_path=ann_model)
    return cfg
