import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from mgres import ann, attack, plant, simulate
from mgres.ann import MlpParams
from mgres.attack import AttackSpec, NonPeriodic
from mgres.graph import CommGraph, GraphError, ring_graph
from mgres.plant import (DgParams, Line, Load, MicrogridModel, NetworkError, NetworkParams,
                         build_ybus)
from mgres.scenario import LoadEvent, RunStart, ScenarioConfig, ScenarioError, builtin_scenario
from mgres.secondary import SecondaryGains
from mgres.simulate import run_scenario
from reference import UNIT_NORM, traces_equal
from test_golden import PARAMS
from test_plant import six_bus_model


def short(name="default", duration=0.2, **kw):
    cfg = builtin_scenario(name, duration=duration)
    return replace(cfg, **kw) if kw else cfg


def const_model(out):
    return MlpParams(np.zeros((10, 7)), np.zeros(10), np.zeros((1, 10)),
                     np.array([float(out)]), UNIT_NORM)


def test_trace_shape_and_sampling():
    tr = run_scenario(short(duration=0.1))
    assert len(tr.t) == 101
    np.testing.assert_allclose(np.diff(tr.t), 1e-3, rtol=1e-9)
    assert tr.dg["v"].shape == (101, 4)
    assert tr.ch_clean.shape == (101, 24)
    assert not tr.attack_active.any()
    assert not tr.diverged
    assert tr.max_power_residual < 1e-9


def test_runs_are_bit_deterministic():
    a = run_scenario(short(duration=0.1))
    b = run_scenario(short(duration=0.1))
    assert traces_equal(a, b)


def test_trace_outlives_the_next_run():
    # each run owns its buffers: a later run, of another scenario with an
    # ANN, leaves an earlier trace's arrays as they were
    first = run_scenario(short(duration=0.05))
    kept = copy.deepcopy(first)
    run_scenario(short("default-nonperiodic", duration=0.05,
                       controllers=("ann", "pi", "pi", "pi"), ann_model=const_model(1.1)))
    assert traces_equal(first, kept)
    for a, b in ((first.dg["v"], kept.dg["v"]), (first.ch_recv, kept.ch_recv)):
        assert a.tobytes() == b.tobytes()


def test_initial_sample_is_the_reference_setpoint():
    tr = run_scenario(short(duration=0.05))
    np.testing.assert_array_equal(tr.dg["Vn"][0], np.full(4, 1.0))
    np.testing.assert_array_equal(tr.dg["wn"][0], np.full(4, 2 * math.pi * 60))


@pytest.fixture(scope="module")
def settled_run():
    return run_scenario(short(duration=2.0))


def test_secondary_pulls_voltage_toward_reference(settled_run):
    tr = settled_run
    early = np.abs(tr.dg["v"][10, 0] - 1.0)
    late = np.abs(tr.dg["v"][-1, 0] - 1.0)
    assert late < early
    assert late < 2e-3
    # frequency recovery is exponential; well under 50 mHz by 2 s
    assert np.abs(tr.dg["w"][-1] - 2 * math.pi * 60).max() < 2 * math.pi * 0.05


def test_active_power_is_shared(settled_run):
    p = settled_run.dg["P"]
    spread = p.max(axis=1) - p.min(axis=1)
    assert spread[-1] < 0.06 * p[-1].mean()
    assert spread[-1] < spread[len(spread) // 2]  # still converging


def test_attack_corrupts_received_channels_only():
    cfg = short("default-nonperiodic", duration=0.3)
    cfg = replace(cfg, attacks=(replace(cfg.attacks[0], tau=0.2),))
    tr = run_scenario(cfg)
    targets = [k for k, ch in enumerate(tr.channels)
               if cfg.attacks[0].matches(*ch)]
    others = [k for k in range(len(tr.channels)) if k not in targets]
    pre = tr.t < 0.2
    post = tr.t >= 0.2
    np.testing.assert_array_equal(tr.ch_recv[pre], tr.ch_clean[pre])
    np.testing.assert_allclose(tr.ch_recv[np.ix_(post, targets)],
                               1.5 * tr.ch_clean[np.ix_(post, targets)],
                               rtol=1e-12)
    np.testing.assert_array_equal(tr.ch_recv[np.ix_(post, others)],
                                  tr.ch_clean[np.ix_(post, others)])
    np.testing.assert_array_equal(tr.attack_active, (tr.t >= 0.2).astype(int))


def test_ann_overrides_only_dg1_voltage_setpoint():
    cfg = short(duration=0.05, controllers=("ann", "pi", "pi", "pi"),
                ann_model=const_model(1.23))
    tr = run_scenario(cfg)
    # sample 0 is recorded before the first controller update
    np.testing.assert_allclose(tr.dg["Vn"][1:, 0], 1.23, rtol=1e-12)
    # frequency set-points and the other DGs stay on the consensus integrator
    assert np.abs(tr.dg["wn"] - 2 * math.pi * 60).max() < 1.0
    assert not np.allclose(tr.dg["Vn"][1:, 1], 1.23)


def test_ann_output_is_clamped():
    cfg = short(duration=0.02, controllers=("ann", "pi", "pi", "pi"),
                ann_model=const_model(7.0))
    tr = run_scenario(cfg)
    np.testing.assert_allclose(tr.dg["Vn"][1:, 0], 1.5)


def test_ann_without_model_is_an_error():
    # the config owns the model: the error comes when it is built, before a run
    with pytest.raises(ScenarioError, match="requires an ann_model"):
        short(duration=0.02, controllers=("ann", "pi", "pi", "pi"))


def test_load_event_changes_operating_point():
    ev = LoadEvent(t=0.5, bus=0, r=0.4, x=0.15)
    tr = run_scenario(short(duration=1.0, load_events=(ev,)))
    before = tr.load_current[np.searchsorted(tr.t, 0.45), 0]
    after = tr.load_current[np.searchsorted(tr.t, 0.55), 0]
    assert after > 1.5 * before  # halved impedance roughly doubles the current


def test_divergence_is_reported_not_raised():
    # wiping out DG1's voltage feedback makes its integrator wind up until
    # the circulating reactive power trips the divergence guard
    atk = AttackSpec(src="broadcast", dst=0, signal="voltage",
                     kind=NonPeriodic(alpha=-0.999), tau=0.05)
    tr = run_scenario(short(duration=0.5, attacks=(atk,)))
    assert tr.diverged
    assert tr.diverged_time is not None and 0.05 <= tr.diverged_time < 0.5
    assert tr.t[-1] <= tr.diverged_time + 1e-9
    assert len(tr.t) < 501
    # pinned on the engine before the per-step rewrite
    assert tr.diverged_time == 0.2398
    assert len(tr.t) == 240
    # the trace keeps which guard tripped; a run that did not diverge has no cause
    assert tr.diverged_cause == "state magnitude 10 exceeded 10.0 pu"
    assert run_scenario(short(duration=0.01)).diverged_cause is None
    # an integral gain whose step overshoots drives a droop voltage below zero
    tr = run_scenario(short(gains=SecondaryGains(c_v=1e4)))
    assert tr.diverged_time == 0.0011
    assert tr.diverged_cause == "non-positive or non-finite droop voltage"
    # a load event that makes the network singular ends the run with the solver's message
    tr = run_scenario(one_dg(LoadEvent(0.02, 1, -0.05, -0.10)))
    assert tr.diverged_cause.startswith("singular admittance system: ")


def test_diverged_run_keeps_the_rows_of_a_run_cut_before_it():
    # P and Q are recorded before the step that updates them in place; the
    # row begun by the step that diverges is cut, and every recorded row
    # has the bits of a run that ends at the last recorded sample
    atk = AttackSpec(src="broadcast", dst=0, signal="voltage",
                     kind=NonPeriodic(alpha=-0.999), tau=0.05)
    cfg = short(duration=0.5, attacks=(atk,))
    tr = run_scenario(cfg)
    cut = run_scenario(replace(cfg, duration=float(tr.t[-1])))
    assert tr.diverged and not cut.diverged
    assert len(cut.t) == len(tr.t) == 240
    assert traces_equal(tr, cut)
    # the first row holds the state before the first step: filters at rest
    assert not tr.dg["P"][0].any() and not tr.dg["Q"][0].any() and tr.dg["P"][1].all()


def test_trace_carries_run_metadata():
    tr = run_scenario(short(duration=0.02))
    assert tr.v_ref == 1.0
    assert tr.w_ref == pytest.approx(2 * math.pi * 60)


def counting(monkeypatch, owner, attr, counts):
    inner = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[attr] += 1
        return inner(*args, **kwargs)

    counts[attr] = 0
    monkeypatch.setattr(owner, attr, counted)


@pytest.mark.parametrize("name, n_ann", [("default", 0), ("default-nonperiodic", 1)])
def test_layer_call_counts(monkeypatch, name, n_ann):
    # the attributes the benchmark's traced run wraps, with its per-step counts
    counts = {}
    for owner, attr in ((simulate, "step_plant"), (simulate, "secondary_update"),
                        (plant, "solve_network"), (attack.AttackSpec, "gain"),
                        (ann, "ann_controller")):
        counting(monkeypatch, owner, attr, counts)
    cfg = short(name, duration=0.05)
    cfg = replace(cfg, attacks=tuple(replace(a, tau=0.02) for a in cfg.attacks),
                  controllers=("ann",) * n_ann + ("pi",) * (4 - n_ann),
                  ann_model=const_model(1.0) if n_ann else None)
    tr = run_scenario(cfg)
    n = cfg.n_steps
    assert n == 500 and not tr.diverged
    assert counts == {"step_plant": n + 1, "solve_network": n + 1,
                      "gain": (n + 1) * len(cfg.attacks),
                      "secondary_update": n, "ann_controller": n * n_ann}


def test_passive_buses_match_full_nodal_solve(monkeypatch):
    # DGs on buses 1, 2, 4, 5; buses 3 and 6 carry loads only
    cfg = ScenarioConfig("six-bus", 0.3, six_bus_model(), ring_graph(4),
                         load_events=(LoadEvent(0.15, 2, 0.4, 0.15),))
    solves = []
    inner = plant.solve_network

    def recorded(ws):
        solves.append((ws.v.copy(), ws.delta.copy(), ws.net))
        return inner(ws)

    monkeypatch.setattr(plant, "solve_network", recorded)
    tr = run_scenario(cfg)
    assert not tr.diverged and len(tr.t) == 301
    assert tr.max_power_residual < 1e-9
    stride = cfg.sample_stride
    want = []
    for vmag, delta, network in solves[::stride]:
        y = build_ybus(network)
        v = np.zeros(6, dtype=complex)
        dg, other = [0, 1, 3, 4], [2, 5]
        v[dg] = vmag * np.exp(1j * delta)
        v[other] = np.linalg.solve(y[np.ix_(other, other)], -y[np.ix_(other, dg)] @ v[dg])
        want.append([abs(v[ld.bus] * ld.admittance) for ld in network.loads])
    np.testing.assert_allclose(tr.load_current, want, rtol=0, atol=1e-12)
    assert tr.load_current[-1, 0] > 1.5 * tr.load_current[100, 0]  # the event took effect


def one_dg(*load_events: LoadEvent) -> ScenarioConfig:
    """One DG on bus 0 feeding a load on bus 1 over a (0.05 + 0.10j) pu line, for 0.05 s."""
    net = NetworkParams(2, (Line(0, 1, 0.05, 0.10),), (Load(1, 0.8, 0.3),), (0,))
    model = MicrogridModel((DgParams(3.77, 0.04, 31.4),), net)
    return ScenarioConfig("one-dg", 0.05, model, ring_graph(1), load_events=load_events)


def test_single_dg_without_graph_edges(tmp_path):
    # one DG feeding a load bus: no communication edges, only the pinning term
    tr = run_scenario(one_dg())
    assert not tr.diverged and len(tr.t) == 51
    assert tr.max_power_residual < 1e-9
    # the loaded DG sags below 1 pu, so its integrator raises the set-point
    assert tr.dg["v"][-1, 0] < 1.0 < tr.dg["Vn"][-1, 0]


def test_halving_dt_halves_the_trace_change():
    # forward Euler is first order: the sampled trace moves by O(dt), so the
    # change from 2e-4 to 1e-4 s is about twice that from 1e-4 to 5e-5 s
    runs = [run_scenario(short("default-nonperiodic", dt=dt)) for dt in (2e-4, 1e-4, 5e-5)]
    for tr in runs[1:]:
        np.testing.assert_array_equal(tr.t, runs[0].t)
    for sig in ("v", "Vn"):
        coarse, mid, fine = (tr.dg[sig] for tr in runs)
        d1, d2 = np.abs(coarse - mid).max(), np.abs(mid - fine).max()
        assert 0 < d2 < 1e-4
        assert 1.8 < d1 / d2 < 2.2, (sig, d1, d2)


@st.composite
def four_dg_graphs(draw):
    """Random 4-DG communication digraphs that ``CommGraph`` accepts: each
    edge with probability 1/2 and weight in [0.5, 2], each DG pinned with
    probability 0.4 and gain in [0.5, 2]."""
    weight = st.floats(0.5, 2.0)
    adj = [[draw(weight) if i != j and draw(st.booleans()) else 0.0 for j in range(4)]
           for i in range(4)]
    pin = [draw(weight) if draw(st.integers(0, 4)) < 2 else 0.0 for _ in range(4)]
    try:
        return CommGraph(np.array(adj), np.array(pin))
    except GraphError:
        reject()


# weights stay >= 0.5: a 4-DG chain of weight-0.1 edges ends a 2 s run 1.24 %
# off, too close to the band; these graphs' worst was 0.67 % over 60 draws
@settings(max_examples=20, deadline=None)
@given(four_dg_graphs())
def test_pi_reaches_the_reference_on_any_pinned_graph(graph):
    cfg = replace(builtin_scenario("default", duration=2.0), graph=graph)
    tr = run_scenario(cfg)
    assert not tr.diverged
    assert (np.abs(tr.dg["v"][-1] - cfg.v_ref) <= 0.02 * cfg.v_ref).all()


def test_a_load_event_lands_on_the_step_it_is_due():
    # an event 5e-13 s past step 200 is due there (LoadEvent.due), as one at
    # exactly 200 dt is; 2e-12 s past it, the event waits for step 201
    t = 200 * 1e-4
    base = run_scenario(one_dg()).load_current[:, 0]
    first_changed = {}
    for offset in (0.0, 5e-13, 2e-12):
        tr = run_scenario(one_dg(LoadEvent(t + offset, 1, 0.4, 0.15)))
        first_changed[offset] = int(np.flatnonzero(tr.load_current[:, 0] != base)[0])
    assert first_changed == {0.0: 20, 5e-13: 20, 2e-12: 21}



@pytest.mark.parametrize("dt, start, stop", [(3e-4, 10, 20), (7e-5, 10, 17)])
def test_an_attack_window_lands_on_steps_as_a_load_event_does(dt, start, stop):
    # at both bounds k * dt rounds below the time k dt written to 10 digits
    # (10 * 3e-4 is 0.0029999999999999996): the attack began and ended a
    # step after a load event at the same time acted
    t0, t1 = round(start * dt, 10), round(stop * dt, 10)
    cfg = builtin_scenario("default-nonperiodic", duration=0.01)
    cfg = replace(cfg, dt=dt, sample_period=dt, load_events=(),
                  attacks=(replace(cfg.attacks[0], tau=t0, end=t1),))
    events = (LoadEvent(t0, 0, 0.4, 0.15), LoadEvent(t1, 0, 0.8, 0.3))
    base = run_scenario(cfg)
    tr = run_scenario(replace(cfg, load_events=events))
    changed = np.flatnonzero(tr.load_current[:, 0] != base.load_current[:, 0])
    on = np.flatnonzero(tr.attack_active)
    assert (changed[0], on[0], on[-1] + 1) == (start, start, stop)
    assert [cfg.first_step(ev.due, ev.t) for ev in events] == [start, stop]

def test_singular_network_at_a_load_event_ends_the_run():
    # the new load cancels the line's admittance: the passive bus's Y_oo is exactly 0
    tr = run_scenario(one_dg(LoadEvent(0.02, 1, -0.05, -0.10)))
    assert tr.diverged and tr.diverged_time == pytest.approx(0.02, abs=1e-12)
    assert len(tr.t) == 20 and tr.t[-1] == pytest.approx(0.019)
    assert tr.load_current.shape == (20, 1) and np.isfinite(tr.data).all()
    # at t = 0 the scenario's own network is at fault, not the run
    with pytest.raises(NetworkError, match="singular admittance system"):
        run_scenario(one_dg(LoadEvent(0.0, 1, -0.05, -0.10)))


# (built-in scenario, controller on DG1, fork step): onset at 0.15 s (step
# 1500), load events at 0.05 and 0.25 s; a fork at step 2000 is taken after
# the attack began to scale, so the resumed run refills its gain vector
RESUME_CASES = [("default-nonperiodic", "pi", 1000), ("default-periodic", "pi", 1000),
                ("default-nonperiodic", "ann", 1000), ("default-periodic", "ann", 1000),
                ("default-periodic", "pi", 2000), ("default-periodic", "ann", 2000)]


@pytest.mark.parametrize("name, ctrl, fork", RESUME_CASES)
def test_a_resumed_run_repeats_the_straight_run_from_its_fork(name, ctrl, fork):
    cfg = short(name, duration=0.3, controllers=(ctrl, "pi", "pi", "pi"),
                ann_model=PARAMS if ctrl == "ann" else None,
                load_events=(LoadEvent(0.05, 0, 0.6, 0.2), LoadEvent(0.25, 2, 1.0, 0.4)))
    cfg = replace(cfg, attacks=tuple(replace(a, tau=0.15) for a in cfg.attacks))
    straight = run_scenario(cfg, fork_steps=(fork,))
    assert straight.forks[fork].step == fork and not straight.diverged
    resumed = run_scenario(replace(cfg, start=straight.forks[fork]))
    m = fork // cfg.sample_stride
    assert len(resumed.t) == 301 - m and resumed.forks == {}
    assert resumed.data.tobytes() == straight.data[m:].tobytes()
    np.testing.assert_array_equal(resumed.attack_active, straight.attack_active[m:])
    assert (resumed.diverged, resumed.diverged_time) == (False, None)
    assert 0 < resumed.max_power_residual < 1e-9


def test_a_resumed_run_diverges_where_the_straight_run_does():
    atk = AttackSpec(src="broadcast", dst=0, signal="voltage",
                     kind=NonPeriodic(alpha=-0.999), tau=0.05)
    cfg = short(duration=0.5, attacks=(atk,))
    straight = run_scenario(cfg, fork_steps=(1000, 3000))
    resumed = run_scenario(replace(cfg, start=straight.forks[1000]))
    assert (resumed.diverged, resumed.diverged_time) == (True, straight.diverged_time)
    assert straight.diverged_time == 0.2398
    assert resumed.data.tobytes() == straight.data[100:].tobytes()
    np.testing.assert_array_equal(resumed.attack_active, straight.attack_active[100:])
    # the run diverged before step 3000, so it has no state to hand out there
    assert straight.forks.keys() == {1000}


def test_the_flat_start_is_the_fork_at_step_0():
    cfg = short(duration=0.01)
    # one run hands out several forks
    tr = run_scenario(cfg, fork_steps=(100, 0))
    assert tr.forks.keys() == {0, 100}
    assert tr.forks[0] == RunStart.flat(4, cfg.v_ref, cfg.w_ref)
    assert traces_equal(run_scenario(replace(cfg, start=tr.forks[0])), tr)
    # a fork at the last step: the resumed run is that step alone
    last = tr.forks[100]
    assert last.step == 100 and replace(cfg, start=last).n_steps == 0
    one = run_scenario(replace(cfg, start=last))
    assert one.data.tobytes() == tr.data[-1:].tobytes()


def test_fork_step_must_be_a_sample_step_of_the_run():
    cfg = short(duration=0.01)
    for bad in (5, -10, 110):
        with pytest.raises(ValueError, match=f"fork step {bad} is not a sample step"):
            run_scenario(cfg, fork_steps=(50, bad))
    resumed = replace(cfg, start=run_scenario(cfg, fork_steps=(50,)).forks[50])
    with pytest.raises(ValueError, match="not a sample step of steps 50 to 100"):
        run_scenario(resumed, fork_steps=(40,))
