import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgres.plant import (DgParams, DivergenceError, Line, Load, MicrogridModel,
                         NetworkError, NetworkParams, PlantState,
                         apply_load_event, build_ybus, default_model,
                         solve_network, step_plant)


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
    model = default_model(m_p=3.77, n_q=0.04)
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
    np.testing.assert_array_equal(model.m_p, np.full(4, 3.77))
    np.testing.assert_array_equal(model.n_q, np.full(4, 0.04))
    np.testing.assert_array_equal(model.omega_c, np.full(4, 31.4))


def test_dg_params_validation():
    with pytest.raises(ValueError):
        DgParams(m_p=0.0, n_q=0.04, omega_c=31.4)
    with pytest.raises(ValueError):
        MicrogridModel(dgs=(DgParams(3.77, 0.04, 31.4),),
                       network=default_model().network)
