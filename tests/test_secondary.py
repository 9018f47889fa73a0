import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgres.attack import AttackSpec, NonPeriodic
from mgres.graph import CommGraph, ring_graph
from mgres.scenario import builtin_scenario
from mgres.secondary import ConsensusMap, SecondaryGains, secondary_update
from mgres.simulate import run_scenario
from reference import tracking_errors


def two_dg_graph():
    return CommGraph(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))


def update(g, v, rv, w, rw, weighted_p, v_n, w_n, v_ref=1.0, w_ref=377.0,
           dt=1e-3, gains=SecondaryGains()):
    """secondary_update with DG i's received copy of DG j's signal at
    rv[i, j] / rw[i, j] and its own at v[i] / w[i]; returns [V_n; w_n]."""
    channels = g.channels()
    cmap = ConsensusMap(g, channels, gains, v_ref, w_ref, dt)
    channel_vector(cmap, channels, v, rv, w, rw, weighted_p)
    setpoints = np.array([v_n, w_n])
    secondary_update(cmap, setpoints)
    return setpoints


def channel_vector(cmap, channels, v, rv, w, rw, weighted_p):
    """Fill the map's input x: the received channel values, then the droop
    terms [n_Q Q; m_P P], whose n_Q Q row the update never reads (NaN here);
    returns x."""
    own = {"voltage": v, "frequency": w}
    other = {"voltage": rv, "frequency": rw}
    cmap.recv[:] = [own[sig][d] if s == d else other[sig][d, s] for s, d, sig in channels]
    cmap.droop[0] = np.nan
    cmap.droop[1] = weighted_p
    return cmap.x


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
    # the new set-points are a function of x and the old set-points only,
    # and x is only read
    cmap = ConsensusMap(g, channels, SecondaryGains(), 1.0, 377.0, 1e-3)
    x = cmap.x
    x[:-2] = np.linspace(0.9, 1.1, len(channels) + 4)
    setpoints = np.array([np.ones(2), np.full(2, 377.0)])
    first, x_before = setpoints.copy(), x.copy()
    secondary_update(cmap, first)
    assert not np.array_equal(first, setpoints)
    np.testing.assert_array_equal(x, x_before)
    again = setpoints.copy()
    secondary_update(cmap, again)
    assert again.tobytes() == first.tobytes()


def test_ring_matches_matrix_form_bitwise():
    # on the ring (two unit-weight in-edges per DG) the channel form sums the
    # same terms in the same order as reference.tracking_errors, also when one
    # map's buffers are reused and the set-points are updated in place
    g = ring_graph(4)
    channels = g.channels()
    cmap = ConsensusMap(g, channels, SecondaryGains(), 1.0, 377.0, 1e-4)
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
        channel_vector(cmap, channels, v, rv, w, rw, wp)
        sp = np.array([v_n, w_n])
        secondary_update(cmap, sp)
        assert sp.tobytes() == want.tobytes()


@st.composite
def pinned_digraphs(draw):
    """Random digraphs on 1-6 DGs that every DG reaches from the reference:
    a random in-tree from one pinned root, then extra edges and pins, with
    weights in [0.1, 3]."""
    n = draw(st.integers(1, 6))
    weight = st.floats(0.1, 3.0)
    order = draw(st.permutations(range(n)))
    adj, pin = np.zeros((n, n)), np.zeros(n)
    pin[order[0]] = draw(weight)
    for k in range(1, n):
        adj[order[k], order[draw(st.integers(0, k - 1))]] = draw(weight)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if i != j:
            adj[i, j] = draw(weight)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        pin[i] = draw(weight)
    return CommGraph(adj, pin)


@settings(max_examples=60, deadline=None)
@given(pinned_digraphs(), st.floats(0.9, 1.1), st.floats(300.0, 400.0),
       st.floats(0.0, 2.0), st.sampled_from([1e-4, 1e-3]))
def test_consensus_is_an_exact_fixed_point(g, v_ref, w_ref, wp, dt):
    # every received value at its reference and equal weighted powers: every
    # difference is exactly 0, so the set-points come back bit for bit
    n = g.n
    cmap = ConsensusMap(g, g.channels(), SecondaryGains(2.5, 7.0), v_ref, w_ref, dt)
    channel_vector(cmap, g.channels(), np.full(n, v_ref), np.full((n, n), v_ref),
                   np.full(n, w_ref), np.full((n, n), w_ref), np.full(n, wp))
    rng = np.random.default_rng(n)
    sp = np.array([rng.uniform(0.9, 1.1, n), rng.uniform(370.0, 380.0, n)])
    before = sp.tobytes()
    secondary_update(cmap, sp)
    assert sp.tobytes() == before


@settings(max_examples=60, deadline=None)
@given(pinned_digraphs(), st.integers(0, 2**32 - 1))
def test_random_digraphs_match_the_matrix_form(g, seed):
    # the map's gathers and edge-weight product against reference.tracking_errors
    rng, n = np.random.default_rng(seed), g.n
    v, rv = rng.uniform(0.95, 1.05, n), rng.uniform(0.95, 1.05, (n, n))
    w, rw = rng.uniform(376.0, 378.0, n), rng.uniform(376.0, 378.0, (n, n))
    wp, v_n, w_n = rng.uniform(0.5, 1.0, n), rng.uniform(0.98, 1.02, n), rng.uniform(376.0, 378.0, n)
    gains, dt = SecondaryGains(2.5, 7.0), 1e-4
    e_v = tracking_errors(g, v, rv, 1.0)
    e_w = tracking_errors(g, w, rw, 377.0)
    share = (g.adjacency * (wp[:, None] - wp[None, :])).sum(axis=1)
    got = update(g, v, rv, w, rw, wp, v_n, w_n, dt=dt, gains=gains)
    np.testing.assert_allclose(got[0], v_n - 2.5 * e_v * dt, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[1], w_n - 7.0 * (e_w + share) * dt, rtol=0, atol=1e-12)


def test_gain_and_name_validation():
    with pytest.raises(ValueError):
        SecondaryGains(c_v=0.0)
    g = two_dg_graph()
    with pytest.raises(ValueError, match="dt"):
        update(g, np.ones(2), np.ones((2, 2)), np.ones(2), np.ones((2, 2)),
               np.zeros(2), np.ones(2), np.ones(2), dt=0.0)
    # the map's gathers read its own x by index: 8 channels, the (2, 2) droop
    # terms and the two references, with recv and droop views into it
    cmap = ConsensusMap(g, g.channels(), SecondaryGains(), 1.0, 377.0, 1e-4)
    assert cmap.x.shape == (14,) and cmap.x[-2:].tolist() == [1.0, 377.0]
    assert cmap.recv.shape == (8,) and cmap.droop.shape == (2, 2)
    assert np.shares_memory(cmap.recv, cmap.x) and np.shares_memory(cmap.droop, cmap.x)
