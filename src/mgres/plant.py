"""Quasi-static phasor model of the physical microgrid.

Droop-controlled DG voltage sources feed an RL line network with constant
impedance loads.  The network is solved algebraically at every step (nodal
admittance, DG buses held as fixed voltage sources, passive buses Kron-reduced
once per load epoch); dynamics live in the power measurement low-pass filters
and the phase angle integrators.

All quantities are per-unit on a common base; angles are radians, frequency
rad/s.  Angle integration is relative to DG1's frequency so that the phasor
frame stays bounded and a true steady state has zero angle derivatives.
Buses are 0-based indices here; errors number them from 1, as scenario
files do.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

DIVERGENCE_LIMIT = 10.0  # pu magnitude at which the run is declared diverged
_TWO_PI = 2.0 * math.pi


class NetworkError(ValueError):
    """Raised for a disconnected/degenerate network or a singular solve."""


class DivergenceError(RuntimeError):
    def __init__(self, t: float, what: str):
        super().__init__(f"state diverged at t={t:.6f}s ({what})")
        self.t, self.what = t, what


@dataclass(frozen=True)
class DgParams:
    m_p: float = 3.77      # active power droop gain, rad/s per pu W
    n_q: float = 0.04      # reactive power droop gain, pu V per pu var
    omega_c: float = 31.4  # power filter cutoff, rad/s

    def __post_init__(self):
        for name in ("m_p", "n_q", "omega_c"):
            if not 0 < (v := getattr(self, name)) < math.inf:
                raise ValueError(f"DG {name} must be positive and finite, got {v}")


def admittance(r: float, x: float, what: str) -> complex:
    """1 / (r + jx) of the element ``what``; a NetworkError where it is not finite."""
    if (z := complex(r, x)) == 0:
        raise NetworkError(f"{what} has zero impedance")
    if not cmath.isfinite(y := 1.0 / z):
        raise NetworkError(f"{what} has an impedance too small to invert, r={r}, x={x}")
    return y


@dataclass(frozen=True)
class Line:
    bus_a: int
    bus_b: int
    r: float
    x: float

    @property
    def admittance(self) -> complex:
        return admittance(self.r, self.x, f"line {self.bus_a + 1}-{self.bus_b + 1}")


@dataclass(frozen=True)
class Load:
    bus: int
    r: float
    x: float

    @property
    def admittance(self) -> complex:
        return admittance(self.r, self.x, f"load at bus {self.bus + 1}")


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
        if self.n_bus < 1:
            raise NetworkError(f"a network needs at least one bus, got n_bus={self.n_bus}")
        if not self.dg_bus:
            raise NetworkError("a network needs at least one DG, got an empty dg_bus")
        for ln in self.lines:
            if ln.bus_a == ln.bus_b:
                raise NetworkError(f"line connects bus {ln.bus_a + 1} to itself")
            for b in (ln.bus_a, ln.bus_b):
                if not 0 <= b < self.n_bus:
                    raise NetworkError(f"line endpoint bus {b + 1} does not exist")
            if not (0 <= ln.r < math.inf and 0 < ln.x < math.inf):
                raise NetworkError(f"line {ln.bus_a + 1}-{ln.bus_b + 1} needs finite r >= 0 and "
                                   f"x > 0, got r={ln.r}, x={ln.x}")
            ln.admittance   # raises if it is not finite
        for ld in self.loads:
            if not 0 <= ld.bus < self.n_bus:
                raise NetworkError(f"load bus {ld.bus + 1} does not exist")
            if not (math.isfinite(ld.r) and math.isfinite(ld.x)):
                raise NetworkError(f"load at bus {ld.bus + 1} needs finite r and x, "
                                   f"got r={ld.r}, x={ld.x}")
        for b in self.dg_bus:
            if not 0 <= b < self.n_bus:
                raise NetworkError(f"DG bus {b + 1} does not exist")
        if len(set(self.dg_bus)) != len(self.dg_bus):
            raise NetworkError("each DG must sit on its own bus")
        self._check_connected()

    def _check_connected(self):
        pairs = [(ln.bus_a, ln.bus_b) for ln in self.lines]
        pairs += [(b, a) for a, b in pairs]
        seen = {0}   # bus 1, then every bus that a line joins to a seen one
        while new := {b for a, b in pairs if a in seen} - seen:
            seen |= new
        if len(seen) != self.n_bus:
            missing = [b + 1 for b in range(self.n_bus) if b not in seen]
            raise NetworkError(f"network is not connected (isolated buses {missing})")

    @cached_property
    def solver(self) -> NetworkSolver:
        """Solver constants of this network, built at first use."""
        return NetworkSolver(self)


def build_ybus(net: NetworkParams) -> np.ndarray:
    """Nodal admittance matrix including the constant impedance loads."""
    y = np.zeros((net.n_bus, net.n_bus), dtype=complex)
    for ln in net.lines:
        yl = ln.admittance
        y[ln.bus_a, ln.bus_a] += yl
        y[ln.bus_b, ln.bus_b] += yl
        y[ln.bus_a, ln.bus_b] -= yl
        y[ln.bus_b, ln.bus_a] -= yl
    for ld in net.loads:
        y[ld.bus, ld.bus] += ld.admittance
    return y


class NetworkSolver:
    """Solver constants of one (immutable) NetworkParams, i.e. one load epoch.

    Passive buses are eliminated by Kron reduction: their voltages are
    v_o = K v_d with K = -Y_oo^-1 Y_od, so the DG currents are Y_red v_d with
    Y_red = Y_dd + Y_do K.  Bus voltages and branch voltages (lines, then
    loads to ground) are fixed linear maps of the DG voltages; ``stack`` =
    [Y_red; branch maps] gives both in one product.  ``n_branch`` counts
    the branches, ``load_y`` is each load's admittance, in the network's
    order, and ``bus_map`` maps the DG voltages to all bus voltages.
    """

    def __init__(self, net: NetworkParams):
        ybus = build_ybus(net)
        self.load_y = np.array([ld.admittance for ld in net.loads], dtype=complex)
        dg = list(net.dg_bus)
        other = sorted(set(range(net.n_bus)) - set(dg))
        bus_map = np.eye(net.n_bus, dtype=complex)[:, dg].copy()   # C order, as in stack
        y_red = ybus[np.ix_(dg, dg)]
        if other:
            try:
                kron = np.linalg.solve(ybus[np.ix_(other, other)],
                                       -ybus[np.ix_(other, dg)])
            except np.linalg.LinAlgError as exc:
                raise NetworkError(f"singular admittance system: {exc}") from exc
            if not np.isfinite(kron).all():
                raise NetworkError("non-finite bus voltages (degenerate network)")
            y_red = y_red + ybus[np.ix_(dg, other)] @ kron
            bus_map[other] = kron
        self.bus_map = bus_map
        # branch voltages [lines; loads], then each scaled by its conductance:
        # consumed power is sum_b g_b |u_b|^2 = Re vdot(u, g u)
        incidence = np.zeros((len(net.lines) + len(net.loads), net.n_bus))
        g = []
        for k, ln in enumerate(net.lines):
            incidence[k, [ln.bus_a, ln.bus_b]] = 1.0, -1.0
            g.append(ln.admittance.real)
        for k, ld in enumerate(net.loads, start=len(net.lines)):
            incidence[k, ld.bus] = 1.0
        g += self.load_y.real.tolist()
        branch = incidence @ bus_map
        self.stack = np.vstack([y_red, branch, np.array(g)[:, None] * branch])
        self.n_branch = len(g)


@dataclass(frozen=True)
class MicrogridModel:
    dgs: tuple[DgParams, ...]
    network: NetworkParams

    def __post_init__(self):
        object.__setattr__(self, "dgs", tuple(self.dgs))
        if len(self.dgs) != len(self.network.dg_bus):
            raise ValueError("one DgParams entry per network DG attachment required")

    @property
    def n(self) -> int:
        return len(self.dgs)


def apply_load_event(net: NetworkParams, bus: int, r: float, x: float) -> NetworkParams:
    """``net`` with the load impedance at a bus replaced."""
    loads = list(net.loads)
    for k, ld in enumerate(loads):
        if ld.bus == bus:
            loads[k] = Load(bus=bus, r=r, x=x)
            return replace(net, loads=tuple(loads))
    raise NetworkError(f"no load declared at bus {bus + 1}")


class PlantWorkspace:
    """The plant of one run: its state, dt and DG constants, the network of
    its load epoch, and the buffers of ``step_plant`` and ``solve_network``.

    The state is the phase angle per DG ``delta``, the imaginary part of
    ``j_delta`` (so the solve exponentiates the angles in place), and the
    filtered powers ``pq_t`` = [P, Q] per DG, (n, 2) like the complex powers,
    so the filter update runs on contiguous arrays; ``pq`` = [P; Q] and its
    rows ``p`` and ``q`` are views of it.  Each step updates the state in
    place and rewrites the droop terms [n_Q Q; m_P P] of the state it reads
    (into the (2, n) ``droop`` the caller hands in), the droop outputs
    ``vw`` = [v; w] and the network solution: the complex voltage ``v_dg``
    and power ``s_dg`` per DG, pu, and the relative active power mismatch
    ``balance_residual``.  Constants are held at the full shape of their
    operands, so no per-step operation broadcasts.

    ``net`` is the network of the load epoch the plant runs on: the
    model's, until ``use`` puts another on.  ``solver`` is always
    ``net.solver``, and ``use`` makes the epoch's buffers with it: ``iu`` =
    [DG currents (then their conjugates); branch voltages u] and the halves
    of u [lines and loads; conductance-scaled].  Their float views make the
    consumed power sum_b g_b |u_b|^2 one real dot, not a complex
    ``np.vdot``.  ``load_current`` reads u's load rows, the load buses'
    voltages, with ``bus_v``'s bits: ``bus_map`` is in C order too.
    """

    def __init__(self, model: MicrogridModel, dt: float, droop: np.ndarray):
        if dt <= 0:
            raise ValueError("dt must be positive")
        n = model.n
        self.dt = dt
        self.j_delta = np.zeros(n, dtype=complex)   # real part 0
        self.delta = self.j_delta.imag   # phase angle per DG, rad, relative to DG1's frame
        self.pq_t = np.zeros((n, 2))   # filtered [P, Q] per DG, pu
        self.pq = self.pq_t.T
        self.p, self.q = self.pq       # row views
        self.pq_flat = self.pq_t.reshape(-1)
        self.inc = np.empty((n, 2))    # the filter's increment
        self.droop = droop
        self.droop_q, self.droop_p = droop   # row views
        self.vw = np.empty((2, n))
        self.v, self.w = self.vw             # row views
        self.n_q = np.array([d.n_q for d in model.dgs])
        self.m_p = np.array([d.m_p for d in model.dgs])
        dt_wc = dt * np.array([d.omega_c for d in model.dgs])
        self.dt_wc = np.column_stack([dt_wc, dt_wc])   # (n, 2), per DG like [P, Q]
        self.v_dg = np.empty(n, dtype=complex)   # DG voltages
        self.s_dg = np.empty(n, dtype=complex)   # DG powers
        self.p_dg = self.s_dg.real
        self.s_re_im = self.s_dg.view(np.float64).reshape(n, 2)   # [Re s, Im s] per DG
        self.balance_residual = 0.0
        self.use(model.network)

    @property
    def bus_v(self) -> np.ndarray:
        """Complex voltage per bus, pu."""
        return self.solver.bus_map @ self.v_dg

    @property
    def load_current(self) -> np.ndarray:
        """Current magnitude per load, pu, in the network's load order."""
        return np.abs(self.u_load * self.solver.load_y)

    def use(self, net: NetworkParams) -> None:
        """Put ``net`` on the plant: a new load epoch, whose solver (built
        once per network) and buffers are made here.  A singular ``net``
        raises ``NetworkError`` and leaves the plant on its old epoch."""
        self.net, self.solver = net, net.solver
        n, nb = len(self.v_dg), self.solver.n_branch
        self.iu = np.empty(n + 2 * nb, dtype=complex)
        self.i_dg, self.u_lo, self.u_hi = self.iu[:n], self.iu[n:n + nb], self.iu[n + nb:]
        self.u_lo_f, self.u_hi_f = self.u_lo.view(np.float64), self.u_hi.view(np.float64)
        self.u_load = self.u_lo[nb - len(self.solver.load_y):]


def solve_network(ws: PlantWorkspace) -> PlantWorkspace:
    """Solve the phasor network ``ws.net`` for per-DG injected complex power.

    DG buses are fixed voltage sources ``ws.v`` * exp(j ``ws.delta``); the
    remaining buses carry no injection and are Kron-reduced once per load
    epoch, by ``ws.solver``.  The residual is the relative mismatch between
    generated active power and load consumption plus line losses, the
    latter summed over the branch voltages of the full network.  Returns
    ``ws`` with the solution written into it.  The voltages are not
    checked here: ``step_plant`` raises on a non-positive one first.
    """
    v, i = ws.v_dg, ws.i_dg
    np.exp(ws.j_delta, v)
    np.multiply(ws.v, v, v)
    ws.solver.stack.dot(v, ws.iu)
    np.conjugate(i, i)
    np.multiply(v, i, ws.s_dg)
    p_cons = ws.u_lo_f.dot(ws.u_hi_f)
    p_gen = sum(ws.p_dg.tolist())
    ws.balance_residual = abs(p_gen - p_cons) / max(1.0, abs(p_gen))
    return ws


def step_plant(ws: PlantWorkspace, setpoints: np.ndarray, t: float) -> PlantWorkspace:
    """Advance the plant state in ``ws`` one fixed Euler step of ``ws.dt``
    from set-points [V_n; w_n] on the network ``ws.net``.

    Order: droop ([v; w] = [V_n; w_n] - [n_Q q; m_P p]) -> network solve ->
    power filter update -> angle integration.
    Angles integrate w_i - w_1 (DG1 frame) and are wrapped to (-pi, pi].
    Deterministic: identical inputs give bit-identical outputs.  Returns
    ``ws``, which holds the new state, this step's droop outputs ``vw`` =
    [v; w] and network solution (``s_dg``, ``v_dg``, ``balance_residual``,
    ``bus_v``, ``load_current``) until the next step overwrites them.  A
    ``DivergenceError`` leaves the state as far as the step got.
    """
    vw = ws.vw
    # two row products: one (2, n) product on a reversed-row view of the state is slower
    np.multiply(ws.n_q, ws.q, ws.droop_q)
    np.multiply(ws.m_p, ws.p, ws.droop_p)
    np.subtract(setpoints, ws.droop, vw)
    vl, wl = vw.tolist()
    # min() is NaN-blind past the first element; the sum is not
    if not (min(vl) > 0.0 and math.isfinite(sum(vl))):
        raise DivergenceError(t, "non-positive or non-finite droop voltage")

    solve_network(ws)
    # the filter update per DG, in place on (n, 2) [P, Q] arrays
    pq, inc = ws.pq_t, ws.inc
    np.subtract(ws.s_re_im, pq, inc)
    np.multiply(ws.dt_wc, inc, inc)
    np.add(pq, inc, pq)
    dt, w0 = ws.dt, wl[0]
    ws.delta[:] = [(d + dt * (x - w0) + math.pi) % _TWO_PI - math.pi
                   for d, x in zip(ws.delta.tolist(), wl)]

    # max() is NaN-blind past the first element; the sum is not
    pl = ws.pq_flat.tolist()
    if not (max(max(pl), -min(pl), max(vl)) <= DIVERGENCE_LIMIT
            and math.isfinite(sum(pl))):
        m = max(np.abs(pq).max(), max(vl))   # NaN if any entry is NaN
        raise DivergenceError(t, f"state magnitude {m:.3g} exceeded {DIVERGENCE_LIMIT} pu")
    return ws


def default_model() -> MicrogridModel:
    """The 4-DG desk-scale test system.

    Four DG buses in a ring of identical RL lines (R = 0.05 pu, X = 0.10 pu)
    with RL loads of 0.8 + j0.3 pu at buses 1 and 3, and ``DgParams``'
    defaults on every DG (m_p is a 1% frequency droop at rated power).  A
    scenario file's ``plant`` section describes any other system.
    """
    lines = tuple(Line(a, b, 0.05, 0.10) for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)))
    loads = (Load(0, 0.8, 0.3), Load(2, 0.8, 0.3))
    net = NetworkParams(n_bus=4, lines=lines, loads=loads, dg_bus=(0, 1, 2, 3))
    return MicrogridModel(dgs=(DgParams(),) * 4, network=net)
