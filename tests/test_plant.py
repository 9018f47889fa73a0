from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mgres import plant, simulate
from mgres.graph import ring_graph
from mgres.plant import (DgParams, DivergenceError, Line, Load, MicrogridModel,
                         NetworkError, NetworkParams, PlantWorkspace,
                         apply_load_event, build_ybus, default_model, solve_network,
                         step_plant)
from mgres.scenario import LoadEvent, ScenarioConfig
from mgres.simulate import run_scenario


def setpoints(v_n, w_n):
    return np.array([v_n, w_n])


def plant_ws(model, dt=1e-4, delta=None, pq=None):
    """A new plant workspace, its state set to ``delta`` and [P; Q] where given."""
    ws = PlantWorkspace(model, dt, np.empty((2, model.n)))
    if delta is not None:
        ws.delta[:] = delta
    if pq is not None:
        ws.pq[:] = pq
    return ws


def solve_on(ws, vmag, delta, net):
    """solve_network on ``ws`` at DG voltages ``vmag`` and angles ``delta``
    on ``net``, which starts a new load epoch unless it is ``ws.net``."""
    if net is not ws.net:
        ws.use(net)
    ws.v[:], ws.delta[:] = vmag, delta
    return solve_network(ws)


def solve(vmag, delta, net):
    """solve_network on a new workspace."""
    model = MicrogridModel((DgParams(),) * len(net.dg_bus), net)
    return solve_on(plant_ws(model), vmag, delta, net)


def two_bus_net(load=Load(1, 0.8, 0.3)):
    return NetworkParams(n_bus=2, lines=(Line(0, 1, 0.05, 0.10),),
                         loads=(load,), dg_bus=(0,))


def test_ybus_two_bus_by_hand():
    net = two_bus_net()
    y_line = 1.0 / (0.05 + 0.10j)
    y_load = 1.0 / (0.8 + 0.3j)
    y = build_ybus(net)
    assert y[0, 0] == pytest.approx(y_line)
    assert y[0, 1] == pytest.approx(-y_line)
    assert y[1, 0] == pytest.approx(-y_line)
    assert y[1, 1] == pytest.approx(y_line + y_load)


def test_two_bus_voltage_divider_oracle():
    # series line + shunt load: independent closed-form solution
    net = two_bus_net()
    sol = solve(np.array([1.0]), np.array([0.0]), net)
    z_line, z_load = 0.05 + 0.10j, 0.8 + 0.3j
    v1 = z_load / (z_line + z_load)
    s_dg = 1.0 * np.conj((1.0 - v1) / z_line)
    assert sol.bus_v[1] == pytest.approx(v1, abs=1e-12)
    assert sol.s_dg[0] == pytest.approx(s_dg, abs=1e-12)
    assert sol.balance_residual < 1e-9


def test_power_balance_random_operating_points():
    model = default_model()
    rng = np.random.default_rng(7)
    for _ in range(20):
        vmag = rng.uniform(0.9, 1.1, 4)
        delta = rng.uniform(-0.3, 0.3, 4)
        sol = solve(vmag, delta, model.network)
        assert sol.balance_residual < 1e-9


def test_all_dg_buses_needs_no_reduction():
    # every bus holds a DG: the reduced system is empty but powers still balance
    model = default_model()
    sol = solve(np.ones(4), np.zeros(4), model.network)
    assert sol.balance_residual < 1e-9
    assert np.allclose(np.abs(sol.bus_v), 1.0)


def test_equal_voltages_share_load_symmetrically():
    sol = solve(np.ones(4), np.zeros(4), default_model().network)
    # ring + identical loads at buses 1 and 3 => DG pairs (1,3) and (2,4) match
    assert sol.s_dg[0] == pytest.approx(sol.s_dg[2], abs=1e-12)
    assert sol.s_dg[1] == pytest.approx(sol.s_dg[3], abs=1e-12)


def resonant_net():
    # j0.1 line in series with a -j0.1 load: Y_oo is exactly zero
    return NetworkParams(2, (Line(0, 1, 0.0, 0.1),), (Load(1, 0.0, -0.1),), (0,))


def test_use_opens_the_epoch():
    # use takes the network's solver; a singular network raises there and
    # leaves the plant on its old epoch, whose next solve has the same bits
    net = two_bus_net()
    ws = plant_ws(MicrogridModel((DgParams(),), net))
    assert ws.net is net and ws.solver is ws.net.solver
    for epoch in (apply_load_event(net, bus=1, r=0.4, x=0.15), net):
        ws.use(epoch)
        assert ws.net is epoch and ws.solver is ws.net.solver
    want = solve_on(ws, np.ones(1), np.full(1, 0.1), net).s_dg.tobytes()
    with pytest.raises(NetworkError, match="singular"):
        ws.use(resonant_net())
    assert ws.net is net and ws.solver is ws.net.solver
    assert solve_network(ws).s_dg.tobytes() == want


def test_resonant_passive_bus_is_singular():
    with pytest.raises(NetworkError, match="singular"):
        solve(np.array([1.0]), np.array([0.0]), resonant_net())


def test_same_step_load_events_open_one_epoch(monkeypatch):
    # two events due at one step give one load epoch: the network between
    # them builds no solver, so a run builds the model's and the epoch's
    built = []

    class CountedSolver(plant.NetworkSolver):
        def __init__(self, net):
            built.append(net)
            super().__init__(net)

    monkeypatch.setattr(plant, "NetworkSolver", CountedSolver)
    model = default_model()
    events = (LoadEvent(0.002, 0, 0.4, 0.15), LoadEvent(0.002, 2, 0.5, 0.2))
    tr = run_scenario(ScenarioConfig("two-events", 0.004, model, ring_graph(model.n),
                                     load_events=events))
    assert not tr.diverged
    net = model.network
    assert built == [net, apply_load_event(apply_load_event(net, 0, 0.4, 0.15), 2, 0.5, 0.2)]


def test_network_invariants():
    # errors number buses from 1, as scenario files do
    with pytest.raises(NetworkError, match="bus 1 to itself"):
        NetworkParams(2, (Line(0, 0, 0.05, 0.1),), (), (0,))
    with pytest.raises(NetworkError, match=r"not connected \(isolated buses \[3\]\)"):
        NetworkParams(3, (Line(0, 1, 0.05, 0.1),), (), (0,))
    with pytest.raises(NetworkError, match="own bus"):
        NetworkParams(2, (Line(0, 1, 0.05, 0.1),), (), (0, 0))
    with pytest.raises(NetworkError, match="r >= 0 and x > 0"):
        NetworkParams(2, (Line(0, 1, 0.05, 0.0),), (), (0,))
    with pytest.raises(NetworkError, match="load at bus 1 has zero impedance"):
        Load(0, 0.0, 0.0).admittance
    with pytest.raises(NetworkError, match="line 1-2 has an impedance too small to invert"):
        NetworkParams(2, (Line(0, 1, 0.0, 1e-320),), (), (0, 1))
    with pytest.raises(NetworkError, match="DG bus 3 does not exist"):
        NetworkParams(2, (Line(0, 1, 0.05, 0.1),), (), (2,))
    with pytest.raises(NetworkError, match="line endpoint bus 3 does not exist"):
        NetworkParams(2, (Line(0, 2, 0.05, 0.1),), (), (0,))


@given(st.floats(0.9, 1.1), st.floats(370, 380),
       st.floats(-1, 1), st.floats(-1, 1))
def test_droop_is_affine(v_n, w_n, p, q):
    # droop outputs of every DG: v = V_n - n_Q q, w = w_n - m_P p
    model = default_model()
    out = plant_ws(model, pq=[np.full(4, p), np.full(4, q)])
    step_plant(out, setpoints(np.full(4, v_n), np.full(4, w_n)), 0.0)
    np.testing.assert_allclose(out.v, v_n - 0.04 * q, rtol=1e-12)
    np.testing.assert_allclose(out.w, w_n - 3.77 * p, rtol=1e-12)


def test_step_is_deterministic():
    model = default_model()
    sp = setpoints(np.full(4, 1.0), np.full(4, 2 * np.pi * 60))
    o1 = step_plant(plant_ws(model), sp, 0.0)
    o2 = step_plant(plant_ws(model), sp, 0.0)
    assert np.array_equal(o1.p, o2.p) and np.array_equal(o1.q, o2.q)
    assert np.array_equal(o1.delta, o2.delta)
    assert np.array_equal(o1.v, o2.v) and np.array_equal(o1.w, o2.w)
    # two workspaces compare two results, not one buffer with itself
    for a, b in ((o1.pq, o2.pq), (o1.delta, o2.delta), (o1.vw, o2.vw),
                 (o1.s_dg, o2.s_dg)):
        assert not np.shares_memory(a, b)


def test_step_filter_update_matches_hand_formula():
    model = default_model()
    dt = 1e-4
    new = step_plant(plant_ws(model, dt),
                     setpoints(np.full(4, 1.0), np.full(4, 2 * np.pi * 60)), 0.0)
    sol = solve(new.v, np.zeros(4), model.network)   # the angles before the step
    np.testing.assert_allclose(new.p, dt * 31.4 * sol.s_dg.real, rtol=1e-12)
    np.testing.assert_allclose(new.q, dt * 31.4 * sol.s_dg.imag, rtol=1e-12)
    # equal frequencies => angles frozen in the DG1 frame
    np.testing.assert_array_equal(new.delta, np.zeros(4))


def test_angle_integrates_relative_frequency_and_wraps():
    model = default_model()
    new = plant_ws(model, delta=[0.0, np.pi - 1e-3, 0.0, 0.0])
    w_n = np.array([0.0, 100.0, 0.0, 0.0]) + 2 * np.pi * 60
    step_plant(new, setpoints(np.full(4, 1.0), w_n), 0.0)
    d1 = np.pi - 1e-3 + 1e-4 * (new.w[1] - new.w[0])
    assert d1 > np.pi  # crosses the branch cut
    assert new.delta[1] == pytest.approx(d1 - 2 * np.pi, abs=1e-12)
    assert -np.pi < new.delta[1] <= np.pi


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_guard():
    model = default_model()
    sp = setpoints(np.full(4, 1.0), np.full(4, 377.0))
    for row, value, message in [
        (1, 100.0, "non-positive or non-finite droop voltage"),   # v = 1 - n_Q Q < 0
        # a large negative P or Q leaves v positive and reaches the magnitude
        # guard, whose bound must cover -min(P, Q) as well as max(P, Q)
        (0, -100.0, "state magnitude 99.7 exceeded"),
        (1, -100.0, "state magnitude 99.7 exceeded"),
        (0, -np.inf, "state magnitude nan exceeded"),
    ]:
        pq = np.zeros((2, 4))
        pq[row] = value
        with pytest.raises(DivergenceError, match=message) as exc:
            step_plant(plant_ws(model, pq=pq), sp, t=0.25)
        assert exc.value.t == 0.25


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("dg", [0, 1, 3])
def test_non_finite_droop_voltage_is_caught_at_any_dg(bad, dg):
    model = default_model()
    v_n = np.full(4, 1.0)
    v_n[dg] = bad
    with pytest.raises(DivergenceError, match="non-finite droop voltage") as exc:
        step_plant(plant_ws(model), setpoints(v_n, np.full(4, 377.0)), t=0.125)
    assert exc.value.t == 0.125


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("dg", [0, 1, 3])
def test_non_finite_filtered_power_is_caught_at_any_dg(bad, dg):
    # a non-finite P leaves v finite and reaches the magnitude guard, whose
    # max() over Python floats skips a NaN that is not first; its sum does not
    model = default_model()
    pq = np.full((2, 4), 0.2)
    pq[0, dg] = bad
    sp = setpoints(np.full(4, 1.0), np.full(4, 377.0))
    with pytest.raises(DivergenceError, match="state magnitude nan exceeded") as exc:
        step_plant(plant_ws(model, pq=pq), sp, t=0.375)
    assert exc.value.t == 0.375


def six_bus_model():
    # 6-bus ring, DGs on buses 1, 2, 4, 5; buses 3 and 6 carry loads only
    lines = tuple(Line(a, (a + 1) % 6, 0.05, 0.10) for a in range(6))
    loads = (Load(2, 0.8, 0.3), Load(5, 0.9, 0.35), Load(0, 1.5, 0.5))
    net = NetworkParams(6, lines, loads, (0, 1, 3, 4))
    return MicrogridModel(tuple(DgParams(3.77, 0.04, 31.4) for _ in range(4)), net)


def assert_same_step(got, want):
    for a, b in ((got.delta, want.delta), (got.pq, want.pq), (got.vw, want.vw),
                 (got.s_dg, want.s_dg), (got.v_dg, want.v_dg), (got.bus_v, want.bus_v)):
        assert a.tobytes() == b.tobytes()
    assert got.balance_residual == want.balance_residual


def run_reused_and_fresh(model, n_steps, events=None, dt=1e-4):
    """Step one reused workspace and compare every step with the same step
    on a fresh workspace seeded with a copy of its state."""
    events = events or {}
    ws = plant_ws(model, dt)
    sp = setpoints(np.linspace(0.99, 1.02, model.n), np.linspace(376.0, 378.0, model.n))
    for k in range(n_steps):
        if k in events:
            ws.use(apply_load_event(ws.net, *events[k]))
        fresh = plant_ws(replace(model, network=ws.net), dt, ws.delta.copy(), ws.pq.copy())
        step_plant(ws, sp, k * dt)
        assert_same_step(ws, step_plant(fresh, sp, k * dt))
        assert ws.balance_residual < 1e-9
    return ws


@pytest.mark.parametrize("model, event", [
    (default_model(), (0, 0.4, 0.15)),
    (six_bus_model(), (2, 0.4, 0.15)),
])
def test_reused_workspace_gives_the_fresh_bits(model, event):
    # the load event at step 6 starts a new load epoch mid-run
    end = run_reused_and_fresh(model, 12, {6: event})
    assert np.abs(end.pq).max() > 0


def test_plant_workspace_follows_the_branch_count():
    model = default_model()
    ws = plant_ws(model)
    vmag, delta = np.linspace(0.98, 1.02, 4), np.linspace(-0.02, 0.02, 4)
    ring = model.network
    chord = NetworkParams(4, ring.lines + (Line(0, 2, 0.1, 0.2),), ring.loads, ring.dg_bus)
    for net in (ring, chord, ring):
        sol = solve_on(ws, vmag, delta, net)
        assert sol.net is net and sol.solver is net.solver
        want = solve(vmag, delta, net)
        assert sol.s_dg.tobytes() == want.s_dg.tobytes()
        assert sol.balance_residual == want.balance_residual < 1e-9
    # no branch at all: one DG alone on its bus
    lone = solve(np.ones(1), np.zeros(1), NetworkParams(1, (), (), (0,)))
    assert lone.s_dg[0] == 0 and lone.balance_residual == 0.0


def test_solve_and_step_return_their_workspace():
    model = default_model()
    ws = plant_ws(model)
    assert solve_on(ws, np.ones(4), np.zeros(4), model.network) is ws
    pws = plant_ws(model)
    assert step_plant(pws, setpoints(np.ones(4), np.full(4, 377.0)), 0.0) is pws


def test_each_network_builds_its_solver_once():
    model = default_model()
    net = model.network
    assert net.solver is net.solver
    bumped = apply_load_event(net, bus=0, r=0.4, x=0.15)
    assert bumped.solver is bumped.solver
    assert bumped.solver is not net.solver
    assert not np.array_equal(bumped.solver.stack[:model.n], net.solver.stack[:model.n])


@st.composite
def random_networks(draw):
    """Connected networks with 2-5 DG buses, 0-2 passive buses and 1-3 loads."""
    n_dg = draw(st.integers(2, 5))
    n_bus = n_dg + draw(st.integers(0, 2))
    imp = st.tuples(st.floats(0.01, 0.1), st.floats(0.05, 0.2))
    # a random spanning tree, then up to two extra lines
    pairs = [(draw(st.integers(0, b - 1)), b) for b in range(1, n_bus)]
    pairs += [p for p in draw(st.lists(st.tuples(st.integers(0, n_bus - 1),
                                                 st.integers(0, n_bus - 1)), max_size=2))
              if p[0] != p[1]]
    lines = tuple(Line(a, b, *draw(imp)) for a, b in pairs)
    load_bus = draw(st.lists(st.integers(0, n_bus - 1), min_size=1, max_size=3, unique=True))
    loads = tuple(Load(b, draw(st.floats(0.8, 3.0)), draw(st.floats(0.1, 0.8)))
                  for b in load_bus)
    dg_bus = tuple(draw(st.permutations(range(n_bus)))[:n_dg])
    net = NetworkParams(n_bus, lines, loads, dg_bus)
    return MicrogridModel(tuple(DgParams(3.77, 0.04, 31.4) for _ in range(n_dg)), net)


@settings(max_examples=15, deadline=None)
@given(random_networks())
def test_random_networks_balance_and_reuse_bits(model):
    tr = run_scenario(ScenarioConfig("random", 0.02, model, ring_graph(model.n)))
    assert not tr.diverged and len(tr.t) == 21
    assert tr.max_power_residual < 1e-9
    run_reused_and_fresh(model, 20)


@settings(max_examples=25, deadline=None)
@given(random_networks(), st.integers(0, 2**32 - 1))
def test_stacked_product_has_the_bits_of_the_two_products(model, seed):
    # one product on [Y_red; branch] fills the DG currents and the branch
    # voltages with the bits of the separate products on unstacked copies
    rng = np.random.default_rng(seed)
    solver = model.network.solver
    y_red, branch = solver.stack[:model.n].copy(), solver.stack[model.n:].copy()
    ws = plant_ws(model)
    for _ in range(5):
        sol = solve_on(ws, rng.uniform(0.9, 1.1, model.n), rng.uniform(-0.3, 0.3, model.n),
                       model.network)
        v = sol.v_dg
        assert sol.i_dg.tobytes() == np.conjugate(np.dot(y_red, v)).tobytes()
        assert sol.iu[model.n:].tobytes() == np.dot(branch, v).tobytes()
        assert np.shares_memory(sol.u_hi, sol.iu) and len(sol.u_lo) == solver.n_branch


@settings(max_examples=15, deadline=None)
@given(random_networks())
@example(six_bus_model())
def test_load_currents_and_residual_from_the_stacked_product(model):
    # the recorded load currents are read from the load rows of the branch
    # voltages, and the consumed power is one real dot on float views of
    # them: the currents have the bits that the bus voltages give, and the
    # residual moves from the complex vdot's only by rounding
    want = []

    def step(*args, **kw):
        ws = step_plant(*args, **kw)
        solver = ws.solver
        load_bus = [ld.bus for ld in ws.net.loads]
        want.append(np.abs(ws.bus_v[load_bus] * solver.load_y))
        p_gen = sum(ws.p_dg.tolist())
        ref = abs(p_gen - np.vdot(ws.u_lo, ws.u_hi).real) / max(1.0, abs(p_gen))
        assert abs(ws.balance_residual - ref) <= 1e-15
        assert ws.balance_residual < 1e-9
        return ws

    ld = model.network.loads[0]   # a new load epoch halfway
    cfg = ScenarioConfig("loads", 0.004, model, ring_graph(model.n), sample_period=2e-4,
                         load_events=(LoadEvent(0.002, ld.bus, 2 * ld.r, ld.x),))
    with mock.patch.object(simulate, "step_plant", step):
        tr = run_scenario(cfg)
    assert not tr.diverged and len(want) == 41
    assert tr.load_current.tobytes() == np.array(want[::2]).tobytes()


def test_apply_load_event():
    net = default_model().network
    bumped = apply_load_event(net, bus=0, r=0.4, x=0.15)
    assert bumped.loads[0] == Load(0, 0.4, 0.15)
    assert net.loads[0] == Load(0, 0.8, 0.3)  # original untouched
    with pytest.raises(NetworkError, match="no load declared at bus 2"):
        apply_load_event(net, bus=1, r=0.4, x=0.15)


def test_default_model_shape():
    model = default_model()
    assert model.n == 4
    assert len(model.network.lines) == 4
    assert [ld.bus for ld in model.network.loads] == [0, 2]
    ws = plant_ws(model)
    np.testing.assert_array_equal(ws.m_p, np.full(4, 3.77))
    np.testing.assert_array_equal(ws.n_q, np.full(4, 0.04))
    np.testing.assert_array_equal(ws.dt_wc, np.full((4, 2), 1e-4 * 31.4))


def test_dg_params_validation():
    with pytest.raises(ValueError):
        DgParams(m_p=0.0, n_q=0.04, omega_c=31.4)
    with pytest.raises(ValueError):
        MicrogridModel(dgs=(DgParams(3.77, 0.04, 31.4),),
                       network=default_model().network)
    with pytest.raises(ValueError, match="dt must be positive"):
        plant_ws(default_model(), dt=0.0)
