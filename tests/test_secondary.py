import math
from dataclasses import replace

import numpy as np
import pytest

from mgres.attack import AttackSpec, NonPeriodic
from mgres.graph import CommGraph, ring_graph, tracking_errors
from mgres.scenario import builtin_scenario
from mgres.secondary import (ConsensusMap, ControllerConfigError,
                             SecondaryGains, check_controller_name,
                             secondary_update)
from mgres.simulate import run_scenario


def two_dg_graph():
    return CommGraph(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))


def update(g, v, rv, w, rw, weighted_p, v_n, w_n, v_ref=1.0, w_ref=377.0,
           dt=1e-3, gains=SecondaryGains()):
    """secondary_update with DG i's received copy of DG j's signal at
    rv[i, j] / rw[i, j] and its own at v[i] / w[i]; returns [V_n; w_n]."""
    channels = g.channels()
    cmap = ConsensusMap(g, channels, gains, v_ref, w_ref)
    return secondary_update(cmap, channel_vector(channels, v, rv, w, rw, weighted_p),
                            np.array([v_n, w_n]), dt)


def channel_vector(channels, v, rv, w, rw, weighted_p):
    """secondary_update's input x: received channel values, then m_P,i P_i."""
    own = {"voltage": v, "frequency": w}
    other = {"voltage": rv, "frequency": rw}
    x = [own[sig][d] if s == d else other[sig][d, s] for s, d, sig in channels]
    return np.array(x + list(weighted_p))


def received(trace, dst, signal):
    """DG dst's received copies of each source's signal, per sample."""
    return {s: trace.ch_recv[:, k] for k, (s, d, sig) in enumerate(trace.channels)
            if d == dst and sig == signal}


def attacked_run(atk, duration=0.02):
    return run_scenario(replace(builtin_scenario("default", duration=duration),
                                attacks=(atk,)))


def test_received_values_without_attack_are_clean():
    tr = run_scenario(builtin_scenario("default", duration=0.02))
    np.testing.assert_array_equal(tr.ch_recv, tr.ch_clean)
    rv = received(tr, 0, "voltage")
    assert sorted(rv) == [0, 1, 3]
    for s, u in rv.items():
        np.testing.assert_array_equal(u, tr.dg["v"][:, s])
    rw = received(tr, 2, "frequency")
    assert sorted(rw) == [1, 2, 3]
    for s, u in rw.items():
        np.testing.assert_array_equal(u, tr.dg["w"][:, s])


def test_received_values_attack_targets_only_named_channel():
    atk = AttackSpec(src=1, dst=0, signal="voltage",
                     kind=NonPeriodic(alpha=0.5), tau=0.0)
    tr = attacked_run(atk)
    v, w = tr.dg["v"], tr.dg["w"]
    rv = received(tr, 0, "voltage")
    np.testing.assert_array_equal(rv[1], v[:, 1] * 1.5)
    np.testing.assert_array_equal(rv[0], v[:, 0])
    np.testing.assert_array_equal(rv[3], v[:, 3])
    np.testing.assert_array_equal(received(tr, 0, "frequency")[1], w[:, 1])
    np.testing.assert_array_equal(received(tr, 1, "voltage")[0], v[:, 0])


def test_inbound_broadcast_corrupts_whole_controller_view():
    atk = AttackSpec(src="broadcast", dst=0, signal="voltage",
                     kind=NonPeriodic(alpha=0.5), tau=0.01)
    tr = attacked_run(atk)
    post = tr.t >= 0.01
    assert post.any() and not post.all()
    for s, u in received(tr, 0, "voltage").items():
        np.testing.assert_array_equal(u[post], tr.dg["v"][post, s] * 1.5)
        np.testing.assert_array_equal(u[~post], tr.dg["v"][~post, s])
    for s, u in received(tr, 1, "voltage").items():
        np.testing.assert_array_equal(u, tr.dg["v"][:, s])


def test_two_dg_hand_step():
    # DG1 pinned, v = [1.05, 1.00], reference 1.00:
    # e_1 = (1.05 - 1.00) + (1.05 - 1.00) = 0.10 -> dVn1 = -5 * 0.10 * 1e-3
    g = two_dg_graph()
    v = np.array([1.05, 1.00])
    rv = np.array([[0.0, 1.00], [1.05, 0.0]])
    w = np.full(2, 377.0)
    rw = np.array([[0.0, 377.0], [377.0, 0.0]])
    v_n, w_n = update(g, v, rv, w, rw, np.zeros(2), [1.05, 1.00], w)
    assert v_n[0] == pytest.approx(1.05 - 5.0 * 0.10 * 1e-3, abs=1e-15)
    assert v_n[1] == pytest.approx(1.00 - 5.0 * (1.00 - 1.05) * 1e-3, abs=1e-15)
    np.testing.assert_array_equal(w_n, w)  # consensus + balanced power


def test_fixed_point_at_consensus():
    g = ring_graph(4)
    v = np.full(4, 1.0)
    w = np.full(4, 2 * math.pi * 60)
    rv = np.tile(v, (4, 1))
    rw = np.tile(w, (4, 1))
    v_n, w_n = update(g, v, rv, w, rw, np.full(4, 0.7), np.full(4, 1.02), w,
                      w_ref=2 * math.pi * 60, dt=1e-4)
    np.testing.assert_array_equal(v_n, np.full(4, 1.02))
    np.testing.assert_array_equal(w_n, w)


def test_power_sharing_term():
    g = two_dg_graph()
    v = np.ones(2)
    rv = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = np.full(2, 377.0)
    rw = np.array([[0.0, 377.0], [377.0, 0.0]])
    wp = np.array([0.8, 0.6])  # DG1 over-loaded by 0.2 (droop-weighted)
    _, w_n = update(g, v, rv, w, rw, wp, np.ones(2), w)
    assert w_n[0] == pytest.approx(377.0 - 5.0 * 0.2 * 1e-3, abs=1e-12)
    assert w_n[1] == pytest.approx(377.0 + 5.0 * 0.2 * 1e-3, abs=1e-12)


def test_update_is_pure():
    g = two_dg_graph()
    channels = g.channels()
    cmap = ConsensusMap(g, channels, SecondaryGains(), 1.0, 377.0)
    x = np.linspace(0.9, 1.1, len(channels) + 2)
    setpoints = np.array([np.ones(2), np.full(2, 377.0)])
    before, x_before = setpoints.copy(), x.copy()
    out = secondary_update(cmap, x, setpoints, 1e-3)
    assert out is not setpoints
    np.testing.assert_array_equal(setpoints, before)
    np.testing.assert_array_equal(x, x_before)


def test_ring_matches_matrix_form_bitwise():
    # on the ring (two unit-weight in-edges per DG) the channel form sums the
    # same terms in the same order as graph.tracking_errors, also when one
    # map's buffers are reused and the set-points are updated in place
    g = ring_graph(4)
    channels = g.channels()
    cmap = ConsensusMap(g, channels, SecondaryGains(), 1.0, 377.0)
    rng = np.random.default_rng(3)
    for _ in range(3):
        v, w = rng.uniform(0.95, 1.05, 4), rng.uniform(376.0, 378.0, 4)
        rv, rw = rng.uniform(0.95, 1.05, (4, 4)), rng.uniform(376.0, 378.0, (4, 4))
        wp = rng.uniform(0.5, 1.0, 4)
        v_n, w_n = rng.uniform(0.98, 1.02, 4), rng.uniform(376.0, 378.0, 4)
        e_v = tracking_errors(g, v, rv, 1.0)
        e_w = tracking_errors(g, w, rw, 377.0)
        share = (g.adjacency * (wp[:, None] - wp[None, :])).sum(axis=1)
        want = np.array([v_n - 5.0 * e_v * 1e-4, w_n - 5.0 * (e_w + share) * 1e-4])
        np.testing.assert_array_equal(update(g, v, rv, w, rw, wp, v_n, w_n, dt=1e-4), want)
        x = channel_vector(channels, v, rv, w, rw, wp)
        sp = np.array([v_n, w_n])
        assert secondary_update(cmap, x, sp, 1e-4, sp) is sp
        assert sp.tobytes() == want.tobytes()


def test_gain_and_name_validation():
    with pytest.raises(ValueError):
        SecondaryGains(c_v=0.0)
    assert check_controller_name("pi") == "pi"
    assert check_controller_name("ann") == "ann"
    with pytest.raises(ControllerConfigError, match="unknown controller"):
        check_controller_name("pid")
    g = two_dg_graph()
    with pytest.raises(ValueError, match="dt"):
        update(g, np.ones(2), np.ones((2, 2)), np.ones(2), np.ones((2, 2)),
               np.zeros(2), np.ones(2), np.ones(2), dt=0.0)
    # the map's gathers read x by index, so x must have the map's layout
    cmap = ConsensusMap(g, g.channels(), SecondaryGains(), 1.0, 377.0)
    with pytest.raises(ValueError, match=r"x must have shape \(10,\), got \(7,\)"):
        secondary_update(cmap, np.ones(7), np.ones((2, 2)), 1e-3)
