"""Quasi-static phasor model of the physical microgrid.

Droop-controlled DG voltage sources feed an RL line network with constant
impedance loads.  The network is solved algebraically at every step (nodal
admittance, DG buses held as fixed voltage sources, passive buses Kron-reduced
once per load epoch); dynamics live in the power measurement low-pass filters
and the phase angle integrators.

All quantities are per-unit on a common base; angles are radians, frequency
rad/s.  Angle integration is relative to DG1's frequency so that the phasor
frame stays bounded and a true steady state has zero angle derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

DIVERGENCE_LIMIT = 10.0  # pu magnitude at which the run is declared diverged
_TWO_PI = 2.0 * math.pi


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
    """Solver constants of one (immutable) NetworkParams, i.e. one load epoch.

    Passive buses are eliminated by Kron reduction: their voltages are
    v_o = K v_d with K = -Y_oo^-1 Y_od, so the DG currents are Y_red v_d with
    Y_red = Y_dd + Y_do K.  Bus voltages and branch voltages (lines, then
    loads to ground) are fixed linear maps of the DG voltages.
    """

    def __init__(self, net: NetworkParams):
        ybus = build_ybus(net)
        dg = list(net.dg_bus)
        other = sorted(set(range(net.n_bus)) - set(dg))
        bus_map = np.eye(net.n_bus, dtype=complex)[:, dg]
        self.y_red = ybus[np.ix_(dg, dg)]
        if other:
            try:
                kron = np.linalg.solve(ybus[np.ix_(other, other)],
                                       -ybus[np.ix_(other, dg)])
            except np.linalg.LinAlgError as exc:
                raise NetworkError(f"singular admittance system: {exc}") from exc
            if not np.isfinite(kron).all():
                raise NetworkError("non-finite bus voltages (degenerate network)")
            self.y_red = self.y_red + ybus[np.ix_(dg, other)] @ kron
            bus_map[other] = kron
        self.bus_map = bus_map
        # branch voltages [lines; loads], then each scaled by its conductance:
        # consumed power is sum_b g_b |u_b|^2 = Re vdot(u, g u)
        incidence = np.zeros((len(net.lines) + len(net.loads), net.n_bus))
        g = []
        for k, ln in enumerate(net.lines):
            incidence[k, [ln.bus_a, ln.bus_b]] = 1.0, -1.0
            g.append((1.0 / complex(ln.r, ln.x)).real)
        for k, ld in enumerate(net.loads, start=len(net.lines)):
            incidence[k, ld.bus] = 1.0
            g.append(ld.admittance.real)
        branch = incidence @ bus_map
        self.branch = np.vstack([branch, np.array(g)[:, None] * branch])
        self.n_branch = len(g)


def _net_cache(net: NetworkParams) -> _NetCache:
    cache = getattr(net, "_solver_cache", None)
    if cache is None:
        cache = _NetCache(net)
        object.__setattr__(net, "_solver_cache", cache)
    return cache


class NetworkSolution:
    """Per-DG injected complex power, DG voltages and the balance residual."""

    __slots__ = ("s_dg", "v_dg", "balance_residual", "_bus_map")

    def __init__(self, s_dg, v_dg, balance_residual, bus_map):
        self.s_dg = s_dg                          # complex power per DG, pu
        self.v_dg = v_dg                          # complex voltage per DG, pu
        self.balance_residual = balance_residual  # relative active power mismatch
        self._bus_map = bus_map

    @property
    def bus_v(self) -> np.ndarray:
        """Complex voltage per bus, pu."""
        return self._bus_map @ self.v_dg


class NetworkWorkspace:
    """Buffers that ``solve_network`` writes for n DGs.

    The solution it returns is ``self.solution``, whose arrays are rewritten
    by the next solve on this workspace.  The workspace follows the network
    it last solved: the branch-voltage buffer u and its halves [lines and
    loads; conductance-scaled] are remade only when the branch count changes.
    """

    def __init__(self, n: int):
        self.v_dg = np.empty(n, dtype=complex)   # DG voltages
        self.i_dg = np.empty(n, dtype=complex)   # DG currents, then their conjugates
        self.s_dg = np.empty(n, dtype=complex)   # DG powers
        self.p_dg = self.s_dg.real
        self.j = np.full(n, 1j)                  # 1j at the shape of the angles
        self.s_re_im = self.s_dg.view(np.float64).reshape(n, 2)   # [Re s, Im s] per DG
        self.solution = NetworkSolution(self.s_dg, self.v_dg, 0.0, None)
        self.net = self.cache = self.u = None

    def use(self, net: NetworkParams) -> None:
        self.net, self.cache = net, _net_cache(net)
        nb = self.cache.n_branch
        if self.u is None or len(self.u) != 2 * nb:
            self.u = np.empty(2 * nb, dtype=complex)
            self.u_lo, self.u_hi = self.u[:nb], self.u[nb:]
        self.solution._bus_map = self.cache.bus_map


def solve_network(vmag: np.ndarray, delta: np.ndarray, net: NetworkParams,
                  ws: NetworkWorkspace | None = None) -> NetworkSolution:
    """Solve the phasor network for per-DG injected complex power.

    DG buses are fixed voltage sources vmag * exp(j delta); the remaining
    buses carry no injection and are Kron-reduced once per network.  The
    returned residual is the relative mismatch between generated active
    power and load consumption plus line losses, the latter summed over the
    branch voltages of the full network.  The solution lives in ``ws`` (a
    fresh workspace when none is given).
    """
    if not min(vmag.tolist()) > 0.0:
        raise NetworkError("DG voltage magnitudes must be positive")
    if ws is None:
        ws = NetworkWorkspace(len(vmag))
    if net is not ws.net:
        ws.use(net)
    cache, v, i = ws.cache, ws.v_dg, ws.i_dg
    np.multiply(ws.j, delta, v)
    np.exp(v, v)
    np.multiply(vmag, v, v)
    np.dot(cache.y_red, v, out=i)
    np.conjugate(i, i)
    np.multiply(v, i, ws.s_dg)
    np.dot(cache.branch, v, out=ws.u)
    p_cons = np.vdot(ws.u_lo, ws.u_hi).real
    p_gen = sum(ws.p_dg.tolist())
    sol = ws.solution
    sol.balance_residual = abs(p_gen - p_cons) / max(1.0, abs(p_gen))
    return sol


class PlantState:
    """Phase angles and the filtered powers, stacked as pq = [P; Q]."""

    __slots__ = ("delta", "pq", "p", "q", "pq_t")

    def __init__(self, delta: np.ndarray, pq: np.ndarray):
        self.delta = delta   # (n,) phase angle per DG, rad, relative to DG1's frame
        self.pq = pq         # (2, n) filtered active and reactive power per DG, pu
        self.p, self.q = pq  # row views
        self.pq_t = pq.T     # (n, 2) view, [P, Q] per DG


class StepOutputs:
    """Droop outputs at the step start, vw = [v; w], and the network solution."""

    __slots__ = ("vw", "solution")

    def __init__(self, vw: np.ndarray, solution: NetworkSolution):
        self.vw = vw               # (2, n) voltage magnitude (pu) and frequency (rad/s)
        self.solution = solution

    @property
    def v(self) -> np.ndarray:
        return self.vw[0]

    @property
    def w(self) -> np.ndarray:
        return self.vw[1]


@dataclass(frozen=True)
class MicrogridModel:
    dgs: tuple[DgParams, ...]
    network: NetworkParams

    def __post_init__(self):
        object.__setattr__(self, "dgs", tuple(self.dgs))
        if len(self.dgs) != len(self.network.dg_bus):
            raise ValueError("one DgParams entry per network DG attachment required")
        # rows n_Q, m_P, omega_c; the first two scale [q; p] in the droop law
        gains = np.array([[d.n_q for d in self.dgs], [d.m_p for d in self.dgs],
                          [d.omega_c for d in self.dgs]])
        gains.setflags(write=False)
        object.__setattr__(self, "_gains", gains)

    @property
    def n(self) -> int:
        return len(self.dgs)

    @property
    def m_p(self) -> np.ndarray:
        return self._gains[1]

    @property
    def n_q(self) -> np.ndarray:
        return self._gains[0]

    @property
    def omega_c(self) -> np.ndarray:
        return self._gains[2]

    def initial_state(self) -> PlantState:
        # [P; Q] stored per DG, the layout of the complex powers (see PlantWorkspace)
        return PlantState(delta=np.zeros(self.n), pq=np.zeros((self.n, 2)).T)


def apply_load_event(model: MicrogridModel, bus: int, r: float, x: float) -> MicrogridModel:
    """Replace the load impedance at a bus; takes effect at the next solve."""
    loads = list(model.network.loads)
    for k, ld in enumerate(loads):
        if ld.bus == bus:
            loads[k] = Load(bus=bus, r=r, x=x)
            net = replace(model.network, loads=tuple(loads))
            return replace(model, network=net)
    raise NetworkError(f"no load declared at bus {bus}")


class PlantWorkspace(NetworkWorkspace):
    """Buffers of ``step_plant`` for one model's DGs and one dt, built once per run.

    Two ``PlantState``s take turns as the next state, so a step reads the
    state it is given while it writes the other.  Their [P; Q] is stored
    per DG, like the complex powers, so the filter update runs on
    contiguous (n, 2) arrays; a state laid out otherwise gives the same
    bits, only more slowly.  The droop outputs [v; w] and the network
    solution are rewritten by every step.  Constants are held at the full
    shape of their operands, so no per-step operation broadcasts.
    """

    def __init__(self, model: MicrogridModel, dt: float):
        n = model.n
        super().__init__(n)
        self.dgs, self.dt = model.dgs, dt
        self.states = (model.initial_state(), model.initial_state())
        self.vw = np.empty((2, n))
        self.v, self.w = self.vw                 # row views
        self.n_q, self.m_p = model._gains[0].copy(), model._gains[1].copy()
        dt_wc = dt * model._gains[2]
        self.dt_wc = np.column_stack([dt_wc, dt_wc])   # (n, 2), per DG like [P, Q]
        self.outputs = StepOutputs(self.vw, self.solution)


def step_plant(model: MicrogridModel, state: PlantState, setpoints: np.ndarray,
               dt: float, t: float = 0.0,
               ws: PlantWorkspace | None = None) -> tuple[PlantState, StepOutputs]:
    """Advance the plant one fixed Euler step from set-points [V_n; w_n].

    Order: droop (v = V_n - n_Q q, w = w_n - m_P p) -> network solve ->
    power filter update -> angle integration.
    Angles integrate w_i - w_1 (DG1 frame) and are wrapped to (-pi, pi].
    Deterministic: identical inputs give bit-identical outputs.  The new
    state and the outputs live in ``ws`` (a fresh workspace when none is
    given); the next step on ``ws`` overwrites the outputs and every state
    but the one it is given.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if ws is None:
        ws = PlantWorkspace(model, dt)
    elif ws.dt != dt or ws.dgs is not model.dgs:
        raise ValueError("workspace was built for another dt or other DGs")
    a, b = ws.states
    new = b if state is a else a
    vw = ws.vw
    np.multiply(ws.n_q, state.q, ws.v)
    np.multiply(ws.m_p, state.p, ws.w)
    np.subtract(setpoints, vw, vw)
    vl = ws.v.tolist()
    # min() is NaN-blind past the first element; the sum is not
    if not (min(vl) > 0.0 and math.isfinite(sum(vl))):
        raise DivergenceError(t, "non-positive or non-finite droop voltage")

    sol = solve_network(ws.v, state.delta, model.network, ws)
    # the filter update per DG, on (n, 2) [P, Q] views
    old, pq = state.pq_t, new.pq_t
    np.subtract(ws.s_re_im, old, pq)
    np.multiply(ws.dt_wc, pq, pq)
    np.add(old, pq, pq)
    wl = ws.w.tolist()
    w0 = wl[0]
    new.delta[:] = [(d + dt * (x - w0) + math.pi) % _TWO_PI - math.pi
                    for d, x in zip(state.delta.tolist(), wl)]

    # max() is NaN-blind past the first element; the sum is not
    p, q = new.pq.tolist()
    pl = p + q
    if not (max(max(map(abs, pl)), max(vl)) <= DIVERGENCE_LIMIT
            and math.isfinite(sum(pl))):
        m = max(np.abs(new.pq).max(), max(vl))   # NaN if any entry is NaN
        raise DivergenceError(t, f"state magnitude {m:.3g} exceeded {DIVERGENCE_LIMIT} pu")
    return new, ws.outputs


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
