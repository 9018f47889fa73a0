"""Quasi-static phasor model of the physical microgrid.

Droop-controlled DG voltage sources feed an RL line network with constant
impedance loads.  The network is solved algebraically at every step (nodal
admittance, DG buses held as fixed voltage sources); dynamics live in the
power measurement low-pass filters and the phase angle integrators.

All quantities are per-unit on a common base; angles are radians, frequency
rad/s.  Angle integration is relative to DG1's frequency so that the phasor
frame stays bounded and a true steady state has zero angle derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

DIVERGENCE_LIMIT = 10.0  # pu magnitude at which the run is declared diverged


class NetworkError(ValueError):
    """Raised for a disconnected/degenerate network or a singular solve."""


class DivergenceError(RuntimeError):
    def __init__(self, t: float, what: str):
        super().__init__(f"state diverged at t={t:.6f}s ({what})")
        self.t = t


@dataclass(frozen=True)
class DgParams:
    m_p: float        # active power droop gain, rad/s per pu W
    n_q: float        # reactive power droop gain, pu V per pu var
    omega_c: float    # power filter cutoff, rad/s
    rated_power: float = 1.0

    def __post_init__(self):
        if self.m_p <= 0 or self.n_q <= 0 or self.omega_c <= 0:
            raise ValueError("droop gains and filter cutoff must be positive")


@dataclass(frozen=True)
class Line:
    bus_a: int
    bus_b: int
    r: float
    x: float


@dataclass(frozen=True)
class Load:
    bus: int
    r: float
    x: float

    @property
    def admittance(self) -> complex:
        z = complex(self.r, self.x)
        if z == 0:
            raise NetworkError(f"load at bus {self.bus} has zero impedance")
        return 1.0 / z


@dataclass(frozen=True)
class NetworkParams:
    n_bus: int
    lines: tuple[Line, ...]
    loads: tuple[Load, ...]
    dg_bus: tuple[int, ...]   # bus index of each DG

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "loads", tuple(self.loads))
        object.__setattr__(self, "dg_bus", tuple(self.dg_bus))
        for ln in self.lines:
            if ln.bus_a == ln.bus_b:
                raise NetworkError(f"line connects bus {ln.bus_a} to itself")
            for b in (ln.bus_a, ln.bus_b):
                if not 0 <= b < self.n_bus:
                    raise NetworkError(f"line endpoint bus {b} does not exist")
            if ln.r < 0 or ln.x <= 0:
                raise NetworkError(f"line {ln.bus_a}-{ln.bus_b} needs r >= 0 and x > 0")
        for ld in self.loads:
            if not 0 <= ld.bus < self.n_bus:
                raise NetworkError(f"load bus {ld.bus} does not exist")
        for b in self.dg_bus:
            if not 0 <= b < self.n_bus:
                raise NetworkError(f"DG bus {b} does not exist")
        if len(set(self.dg_bus)) != len(self.dg_bus):
            raise NetworkError("each DG must sit on its own bus")
        self._check_connected()

    def _check_connected(self):
        seen = {0}
        frontier = [0]
        nbrs: dict[int, list[int]] = {b: [] for b in range(self.n_bus)}
        for ln in self.lines:
            nbrs[ln.bus_a].append(ln.bus_b)
            nbrs[ln.bus_b].append(ln.bus_a)
        while frontier:
            b = frontier.pop()
            for nb in nbrs[b]:
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        if len(seen) != self.n_bus:
            missing = sorted(set(range(self.n_bus)) - seen)
            raise NetworkError(f"network is not connected (isolated buses {missing})")


def build_ybus(net: NetworkParams) -> np.ndarray:
    """Nodal admittance matrix including the constant impedance loads."""
    y = np.zeros((net.n_bus, net.n_bus), dtype=complex)
    for ln in net.lines:
        yl = 1.0 / complex(ln.r, ln.x)
        y[ln.bus_a, ln.bus_a] += yl
        y[ln.bus_b, ln.bus_b] += yl
        y[ln.bus_a, ln.bus_b] -= yl
        y[ln.bus_b, ln.bus_a] -= yl
    for ld in net.loads:
        y[ld.bus, ld.bus] += ld.admittance
    return y


class _NetCache:
    """Precomputed solver arrays for one (immutable) NetworkParams."""

    def __init__(self, net: NetworkParams):
        self.ybus = build_ybus(net)
        self.dg = np.array(net.dg_bus, dtype=int)
        dg_set = set(net.dg_bus)
        self.other = np.array([b for b in range(net.n_bus) if b not in dg_set],
                              dtype=int)
        self.line_a = np.array([ln.bus_a for ln in net.lines], dtype=int)
        self.line_b = np.array([ln.bus_b for ln in net.lines], dtype=int)
        self.line_r = np.array([ln.r for ln in net.lines])
        self.y_line = np.array([1.0 / complex(ln.r, ln.x) for ln in net.lines])
        self.load_bus = np.array([ld.bus for ld in net.loads], dtype=int)
        self.load_g = np.array([ld.admittance.real for ld in net.loads])
        if self.other.size:
            self.y_oo = self.ybus[np.ix_(self.other, self.other)]
            self.y_od = self.ybus[np.ix_(self.other, self.dg)]


def _net_cache(net: NetworkParams) -> _NetCache:
    cache = getattr(net, "_solver_cache", None)
    if cache is None:
        cache = _NetCache(net)
        object.__setattr__(net, "_solver_cache", cache)
    return cache


@dataclass(frozen=True)
class NetworkSolution:
    s_dg: np.ndarray        # complex injected power per DG, pu
    bus_v: np.ndarray       # complex voltage per bus, pu
    balance_residual: float  # relative active power mismatch


def solve_network(vmag: np.ndarray, delta: np.ndarray,
                  net: NetworkParams) -> NetworkSolution:
    """Solve the phasor network for per-DG injected complex power.

    DG buses are fixed voltage sources vmag * exp(j delta); the remaining
    buses carry no injection and their voltages come from the reduced linear
    system.  The returned residual is the relative mismatch between generated
    active power and load consumption plus line losses.
    """
    vmag = np.asarray(vmag, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if (vmag <= 0).any():
        raise NetworkError("DG voltage magnitudes must be positive")
    cache = _net_cache(net)

    v = np.zeros(net.n_bus, dtype=complex)
    v[cache.dg] = vmag * np.exp(1j * delta)
    if cache.other.size:
        try:
            v[cache.other] = np.linalg.solve(cache.y_oo, -cache.y_od @ v[cache.dg])
        except np.linalg.LinAlgError as exc:
            raise NetworkError(f"singular admittance system: {exc}") from exc
        if not np.isfinite(v[cache.other]).all():
            raise NetworkError("non-finite bus voltages (degenerate network)")

    i_inj = cache.ybus @ v
    s_dg = v[cache.dg] * np.conj(i_inj[cache.dg])

    p_load = float(((v.real[cache.load_bus] ** 2 + v.imag[cache.load_bus] ** 2)
                    * cache.load_g).sum())
    i_line = (v[cache.line_a] - v[cache.line_b]) * cache.y_line
    p_loss = float(((i_line.real ** 2 + i_line.imag ** 2) * cache.line_r).sum())
    p_gen = float(s_dg.real.sum())
    residual = abs(p_gen - p_load - p_loss) / max(1.0, abs(p_gen))
    return NetworkSolution(s_dg=s_dg, bus_v=v, balance_residual=residual)


@dataclass(frozen=True)
class PlantState:
    delta: np.ndarray   # phase angle per DG, rad, relative to DG1's frame
    p: np.ndarray       # filtered active power per DG, pu
    q: np.ndarray       # filtered reactive power per DG, pu


@dataclass(frozen=True)
class StepOutputs:
    v: np.ndarray            # output voltage magnitude per DG at step start
    w: np.ndarray            # frequency per DG at step start, rad/s
    solution: NetworkSolution


@dataclass(frozen=True)
class MicrogridModel:
    dgs: tuple[DgParams, ...]
    network: NetworkParams

    def __post_init__(self):
        object.__setattr__(self, "dgs", tuple(self.dgs))
        if len(self.dgs) != len(self.network.dg_bus):
            raise ValueError("one DgParams entry per network DG attachment required")

        for name in ("m_p", "n_q", "omega_c"):
            arr = np.array([getattr(d, name) for d in self.dgs])
            arr.setflags(write=False)
            object.__setattr__(self, "_" + name, arr)

    @property
    def n(self) -> int:
        return len(self.dgs)

    @property
    def m_p(self) -> np.ndarray:
        return self._m_p

    @property
    def n_q(self) -> np.ndarray:
        return self._n_q

    @property
    def omega_c(self) -> np.ndarray:
        return self._omega_c

    def initial_state(self) -> PlantState:
        n = self.n
        return PlantState(delta=np.zeros(n), p=np.zeros(n), q=np.zeros(n))


def apply_load_event(model: MicrogridModel, bus: int, r: float, x: float) -> MicrogridModel:
    """Replace the load impedance at a bus; takes effect at the next solve."""
    loads = list(model.network.loads)
    for k, ld in enumerate(loads):
        if ld.bus == bus:
            loads[k] = Load(bus=bus, r=r, x=x)
            net = replace(model.network, loads=tuple(loads))
            return replace(model, network=net)
    raise NetworkError(f"no load declared at bus {bus}")


def step_plant(model: MicrogridModel, state: PlantState,
               v_n: np.ndarray, w_n: np.ndarray, dt: float,
               t: float = 0.0) -> tuple[PlantState, StepOutputs]:
    """Advance the plant one fixed Euler step.

    Order: droop (v = V_n - n_Q q, w = w_n - m_P p) -> network solve ->
    power filter update -> angle integration.
    Angles integrate w_i - w_1 (DG1 frame) and are wrapped to (-pi, pi].
    Deterministic: identical inputs give bit-identical outputs.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    v = v_n - model.n_q * state.q
    w = w_n - model.m_p * state.p
    if (v <= 0).any() or not np.isfinite(v).all():
        raise DivergenceError(t, "non-positive or non-finite droop voltage")

    sol = solve_network(v, state.delta, model.network)

    wc = model.omega_c
    p_new = state.p + dt * wc * (sol.s_dg.real - state.p)
    q_new = state.q + dt * wc * (sol.s_dg.imag - state.q)
    delta_new = state.delta + dt * (w - w[0])
    delta_new = np.mod(delta_new + math.pi, 2.0 * math.pi) - math.pi

    # NaN fails the comparison too, so non-finite states also land here
    m = max(np.abs(p_new).max(), np.abs(q_new).max(), v.max())
    if not m <= DIVERGENCE_LIMIT:
        raise DivergenceError(t, f"state magnitude {m:.3g} exceeded {DIVERGENCE_LIMIT} pu")

    new_state = PlantState(delta=delta_new, p=p_new, q=q_new)
    return new_state, StepOutputs(v=v, w=w, solution=sol)


def default_model(load1: complex = 0.8 + 0.3j, load2: complex = 0.8 + 0.3j,
                  m_p: float = 3.77, n_q: float = 0.04,
                  omega_c: float = 31.4) -> MicrogridModel:
    """The 4-DG desk-scale test system.

    Four DG buses in a ring of identical RL lines (R = 0.05 pu, X = 0.10 pu)
    with RL loads at buses 1 and 3.  m_p defaults to a 1% frequency droop at
    rated power; all parameters are per-unit and configurable.
    """
    lines = tuple(Line(a, b, 0.05, 0.10) for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)))
    loads = (Load(0, load1.real, load1.imag), Load(2, load2.real, load2.imag))
    net = NetworkParams(n_bus=4, lines=lines, loads=loads, dg_bus=(0, 1, 2, 3))
    dgs = tuple(DgParams(m_p=m_p, n_q=n_q, omega_c=omega_c) for _ in range(4))
    return MicrogridModel(dgs=dgs, network=net)
