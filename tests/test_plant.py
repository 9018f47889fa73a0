import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgres.graph import ring_graph
from mgres.plant import (DgParams, DivergenceError, Line, Load, MicrogridModel,
                         NetworkError, NetworkParams, NetworkWorkspace, PlantState,
                         PlantWorkspace, apply_load_event, build_ybus, default_model,
                         solve_network, step_plant)
from mgres.scenario import ScenarioConfig
from mgres.simulate import run_scenario


def setpoints(v_n, w_n):
    return np.array([v_n, w_n])


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
    sol = solve_network(np.array([1.0]), np.array([0.0]), net)
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
        sol = solve_network(vmag, delta, model.network)
        assert sol.balance_residual < 1e-9


def test_all_dg_buses_needs_no_reduction():
    # every bus holds a DG: the reduced system is empty but powers still balance
    model = default_model()
    sol = solve_network(np.ones(4), np.zeros(4), model.network)
    assert sol.balance_residual < 1e-9
    assert np.allclose(np.abs(sol.bus_v), 1.0)


def test_equal_voltages_share_load_symmetrically():
    sol = solve_network(np.ones(4), np.zeros(4), default_model().network)
    # ring + identical loads at buses 1 and 3 => DG pairs (1,3) and (2,4) match
    assert sol.s_dg[0] == pytest.approx(sol.s_dg[2], abs=1e-12)
    assert sol.s_dg[1] == pytest.approx(sol.s_dg[3], abs=1e-12)


def test_solver_input_validation():
    net = two_bus_net()
    with pytest.raises(NetworkError, match="positive"):
        solve_network(np.array([0.0]), np.array([0.0]), net)


def test_resonant_passive_bus_is_singular():
    # j0.1 line in series with a -j0.1 load: Y_oo is exactly zero
    net = NetworkParams(2, (Line(0, 1, 0.0, 0.1),), (Load(1, 0.0, -0.1),), (0,))
    with pytest.raises(NetworkError, match="singular"):
        solve_network(np.array([1.0]), np.array([0.0]), net)


def test_network_invariants():
    with pytest.raises(NetworkError, match="itself"):
        NetworkParams(2, (Line(0, 0, 0.05, 0.1),), (), (0,))
    with pytest.raises(NetworkError, match="not connected"):
        NetworkParams(3, (Line(0, 1, 0.05, 0.1),), (), (0,))
    with pytest.raises(NetworkError, match="own bus"):
        NetworkParams(2, (Line(0, 1, 0.05, 0.1),), (), (0, 0))
    with pytest.raises(NetworkError, match="r >= 0 and x > 0"):
        NetworkParams(2, (Line(0, 1, 0.05, 0.0),), (), (0,))
    with pytest.raises(NetworkError, match="zero impedance"):
        Load(0, 0.0, 0.0).admittance


@given(st.floats(0.9, 1.1), st.floats(370, 380),
       st.floats(-1, 1), st.floats(-1, 1))
def test_droop_is_affine(v_n, w_n, p, q):
    # droop outputs of every DG: v = V_n - n_Q q, w = w_n - m_P p
    model = default_model()
    state = PlantState(delta=np.zeros(4), pq=np.array([np.full(4, p), np.full(4, q)]))
    _, out = step_plant(model, state, setpoints(np.full(4, v_n), np.full(4, w_n)), 1e-4)
    np.testing.assert_allclose(out.v, v_n - 0.04 * q, rtol=1e-12)
    np.testing.assert_allclose(out.w, w_n - 3.77 * p, rtol=1e-12)


def test_step_is_deterministic():
    model = default_model()
    sp = setpoints(np.full(4, 1.0), np.full(4, 2 * np.pi * 60))
    s1, o1 = step_plant(model, model.initial_state(), sp, 1e-4)
    s2, o2 = step_plant(model, model.initial_state(), sp, 1e-4)
    assert np.array_equal(s1.p, s2.p) and np.array_equal(s1.q, s2.q)
    assert np.array_equal(s1.delta, s2.delta)
    assert np.array_equal(o1.v, o2.v) and np.array_equal(o1.w, o2.w)
    # two calls without a workspace compare two results, not one buffer with itself
    for a, b in ((s1.pq, s2.pq), (s1.delta, s2.delta), (o1.vw, o2.vw),
                 (o1.s_dg, o2.s_dg)):
        assert not np.shares_memory(a, b)


def test_step_filter_update_matches_hand_formula():
    model = default_model()
    state = model.initial_state()
    dt = 1e-4
    new, out = step_plant(model, state, setpoints(np.full(4, 1.0), np.full(4, 2 * np.pi * 60)),
                          dt)
    sol = solve_network(out.v, state.delta, model.network)
    np.testing.assert_allclose(new.p, dt * 31.4 * sol.s_dg.real, rtol=1e-12)
    np.testing.assert_allclose(new.q, dt * 31.4 * sol.s_dg.imag, rtol=1e-12)
    # equal frequencies => angles frozen in the DG1 frame
    np.testing.assert_array_equal(new.delta, np.zeros(4))


def test_angle_integrates_relative_frequency_and_wraps():
    model = default_model()
    state = PlantState(delta=np.array([0.0, np.pi - 1e-3, 0.0, 0.0]),
                       pq=np.zeros((2, 4)))
    w_n = np.array([0.0, 100.0, 0.0, 0.0]) + 2 * np.pi * 60
    new, out = step_plant(model, state, setpoints(np.full(4, 1.0), w_n), dt=1e-4)
    d1 = np.pi - 1e-3 + 1e-4 * (out.w[1] - out.w[0])
    assert d1 > np.pi  # crosses the branch cut
    assert new.delta[1] == pytest.approx(d1 - 2 * np.pi, abs=1e-12)
    assert -np.pi < new.delta[1] <= np.pi


def test_divergence_guard():
    model = default_model()
    bad = PlantState(delta=np.zeros(4), pq=np.array([np.zeros(4), np.full(4, 100.0)]))
    sp = setpoints(np.full(4, 1.0), np.full(4, 377.0))
    with pytest.raises(DivergenceError):
        step_plant(model, bad, sp, 1e-4, t=0.25)
    try:
        step_plant(model, bad, sp, 1e-4, t=0.25)
    except DivergenceError as exc:
        assert exc.t == 0.25


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("dg", [0, 1, 3])
def test_non_finite_droop_voltage_is_caught_at_any_dg(bad, dg):
    model = default_model()
    v_n = np.full(4, 1.0)
    v_n[dg] = bad
    with pytest.raises(DivergenceError, match="non-finite droop voltage") as exc:
        step_plant(model, model.initial_state(), setpoints(v_n, np.full(4, 377.0)),
                   1e-4, t=0.125)
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
        step_plant(model, PlantState(np.zeros(4), pq), sp, 1e-4, t=0.375)
    assert exc.value.t == 0.375


def six_bus_model():
    # 6-bus ring, DGs on buses 1, 2, 4, 5; buses 3 and 6 carry loads only
    lines = tuple(Line(a, (a + 1) % 6, 0.05, 0.10) for a in range(6))
    loads = (Load(2, 0.8, 0.3), Load(5, 0.9, 0.35), Load(0, 1.5, 0.5))
    net = NetworkParams(6, lines, loads, (0, 1, 3, 4))
    return MicrogridModel(tuple(DgParams(3.77, 0.04, 31.4) for _ in range(4)), net)


def assert_same_step(got, want):
    (s1, o1), (s2, o2) = got, want
    for a, b in ((s1.delta, s2.delta), (s1.pq, s2.pq), (o1.vw, o2.vw),
                 (o1.s_dg, o2.s_dg), (o1.v_dg, o2.v_dg), (o1.bus_v, o2.bus_v)):
        assert a.tobytes() == b.tobytes()
    assert o1.balance_residual == o2.balance_residual


def run_reused_and_fresh(model, n_steps, events=None, dt=1e-4):
    """Step one state on one reused workspace and compare every step with the
    same step, from a copy of the same state, on a fresh workspace."""
    events = events or {}
    ws = PlantWorkspace(model, dt)
    state = model.initial_state()
    sp = setpoints(np.linspace(0.99, 1.02, model.n), np.linspace(376.0, 378.0, model.n))
    for k in range(n_steps):
        if k in events:
            model = apply_load_event(model, *events[k])
        copy = PlantState(state.delta.copy(), state.pq.copy())
        got = step_plant(model, state, sp, dt, k * dt, ws)
        assert_same_step(got, step_plant(model, copy, sp, dt, k * dt))
        assert got[1].balance_residual < 1e-9
        state = got[0]
    return state


@pytest.mark.parametrize("model, event", [
    (default_model(), (0, 0.4, 0.15)),
    (six_bus_model(), (2, 0.4, 0.15)),
])
def test_reused_workspace_gives_the_fresh_bits(model, event):
    # the load event at step 6 starts a new load epoch mid-run
    end = run_reused_and_fresh(model, 12, {6: event})
    assert np.abs(end.pq).max() > 0


def test_network_workspace_follows_the_branch_count():
    ws = NetworkWorkspace(4)
    vmag, delta = np.linspace(0.98, 1.02, 4), np.linspace(-0.02, 0.02, 4)
    ring = default_model().network
    chord = NetworkParams(4, ring.lines + (Line(0, 2, 0.1, 0.2),), ring.loads, ring.dg_bus)
    for net in (ring, chord, ring):
        sol = solve_network(vmag, delta, net, ws)
        want = solve_network(vmag, delta, net)
        assert sol.s_dg.tobytes() == want.s_dg.tobytes()
        assert sol.balance_residual == want.balance_residual < 1e-9
    # no branch at all: one DG alone on its bus
    lone = solve_network(np.ones(1), np.zeros(1), NetworkParams(1, (), (), (0,)))
    assert lone.s_dg[0] == 0 and lone.balance_residual == 0.0


def test_solve_and_step_return_their_workspace():
    model = default_model()
    vmag, delta = np.ones(4), np.zeros(4)
    ws = NetworkWorkspace(4)
    assert solve_network(vmag, delta, model.network, ws) is ws
    fresh = solve_network(vmag, delta, model.network)
    assert isinstance(fresh, NetworkWorkspace) and fresh is not ws
    assert fresh.s_dg.tobytes() == ws.s_dg.tobytes()
    pws = PlantWorkspace(model, 1e-4)
    sp = setpoints(np.ones(4), np.full(4, 377.0))
    new, out = step_plant(model, model.initial_state(), sp, 1e-4, ws=pws)
    assert out is pws and new in pws.states
    _, out = step_plant(model, model.initial_state(), sp, 1e-4)
    assert isinstance(out, PlantWorkspace) and out is not pws


def test_each_network_builds_its_solver_once():
    model = default_model()
    net = model.network
    assert net.solver is net.solver
    bumped = apply_load_event(model, bus=0, r=0.4, x=0.15).network
    assert bumped.solver is bumped.solver
    assert bumped.solver is not net.solver
    assert not np.array_equal(bumped.solver.y_red, net.solver.y_red)


def test_workspace_is_bound_to_its_dt_and_dgs():
    model = default_model()
    ws = PlantWorkspace(model, 1e-4)
    sp = setpoints(np.ones(4), np.full(4, 377.0))
    with pytest.raises(ValueError, match="another dt or other DGs"):
        step_plant(model, model.initial_state(), sp, 2e-4, ws=ws)
    with pytest.raises(ValueError, match="another dt or other DGs"):
        step_plant(MicrogridModel(dgs=(DgParams(m_p=1.0),) * 4, network=model.network),
                   model.initial_state(), sp, 1e-4, ws=ws)


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
    y_red, branch = solver.y_red.copy(), solver.branch.copy()
    ws = NetworkWorkspace(model.n)
    for _ in range(5):
        sol = solve_network(rng.uniform(0.9, 1.1, model.n), rng.uniform(-0.3, 0.3, model.n),
                            model.network, ws)
        v = sol.v_dg
        assert sol.i_dg.tobytes() == np.conjugate(np.dot(y_red, v)).tobytes()
        assert sol.iu[model.n:].tobytes() == np.dot(branch, v).tobytes()
        assert np.shares_memory(sol.u_hi, sol.iu) and len(sol.u_lo) == solver.n_branch


def test_apply_load_event():
    model = default_model()
    bumped = apply_load_event(model, bus=0, r=0.4, x=0.15)
    assert bumped.network.loads[0] == Load(0, 0.4, 0.15)
    assert model.network.loads[0] == Load(0, 0.8, 0.3)  # original untouched
    with pytest.raises(NetworkError, match="no load"):
        apply_load_event(model, bus=1, r=0.4, x=0.15)


def test_default_model_shape():
    model = default_model()
    assert model.n == 4
    assert len(model.network.lines) == 4
    assert [ld.bus for ld in model.network.loads] == [0, 2]
    ws = PlantWorkspace(model, 1e-4)
    np.testing.assert_array_equal(ws.m_p, np.full(4, 3.77))
    np.testing.assert_array_equal(ws.n_q, np.full(4, 0.04))
    np.testing.assert_array_equal(ws.dt_wc, np.full((4, 2), 1e-4 * 31.4))


def test_dg_params_validation():
    with pytest.raises(ValueError):
        DgParams(m_p=0.0, n_q=0.04, omega_c=31.4)
    with pytest.raises(ValueError):
        MicrogridModel(dgs=(DgParams(3.77, 0.04, 31.4),),
                       network=default_model().network)
