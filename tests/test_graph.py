import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgres.graph import CommGraph, GraphError, ring_graph, validate
from reference import tracking_errors


def test_default_ring_is_valid():
    g = ring_graph(4)
    validate(g)
    assert g.in_neighbors(0) == [1, 3]  # DG1 hears DG2 and DG4
    assert g.pinning[0] == 1.0 and g.pinning[1:].sum() == 0


def test_pinned_singleton_is_valid():
    g = CommGraph(np.zeros((1, 1)), np.array([1.0]))
    assert g.n == 1


@pytest.mark.parametrize("n, adj", [
    (1, [[0.0]]), (2, [[0.0, 1.0], [1.0, 0.0]]),
    (3, [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
])
def test_small_rings(n, adj):
    g = ring_graph(n)
    np.testing.assert_array_equal(g.adjacency, adj)


def test_disconnected_dg_is_rejected():
    with pytest.raises(GraphError, match="unreachable"):
        CommGraph(np.zeros((2, 2)), np.array([1.0, 0.0]))


# errors number DGs from 1, as scenario files do: a[i, j] is the edge dg(j+1) -> dg(i+1)
@pytest.mark.parametrize("adj, pin, msg", [
    (np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([1.0, 0.0]),
     "negative weight -1.0 on edge dg2 -> dg1"),
    (np.array([[0.0, 1.0], [1.0, 0.5]]), np.array([1.0, 0.0]),
     "diagonal weight 0.5 on edge dg2 -> dg2"),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 0.0]), "no pinned"),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, -1.0]),
     "negative pinning gain -1.0 of DG 2"),
    (np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]), np.array([1.0, 0, 0]),
     "DG 3 is unreachable"),
    (np.zeros((2, 3)), np.array([1.0, 0.0]), r"adjacency must be square, got shape \(2, 3\)"),
    (np.zeros((2, 2)), np.array([1.0]), r"pinning must have length 2, got shape \(1,\)"),
    (np.array([[0.0, np.nan], [1.0, 0.0]]), np.array([1.0, 0.0]), "graph weights must be finite"),
])
def test_invariant_violations(adj, pin, msg):
    with pytest.raises(GraphError, match=msg):
        CommGraph(adj, pin)


def test_consensus_fixed_point():
    g = ring_graph(4)
    values = np.full(4, 1.0)
    np.testing.assert_array_equal(
        tracking_errors(g, values, np.tile(values, (4, 1)), 1.0), np.zeros(4))


def test_two_dg_hand_case():
    g = CommGraph(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
    e = tracking_errors(g, np.array([1.05, 1.00]), np.array([1.05, 1.00]), 1.00)
    assert e[0] == pytest.approx(0.10, abs=1e-15)


def test_against_double_loop_oracle():
    rng = np.random.default_rng(42)
    adj = rng.uniform(0, 2, (4, 4))
    np.fill_diagonal(adj, 0.0)
    pin = rng.uniform(0, 1, 4)
    pin[0] = 1.0
    g = CommGraph(adj, pin)
    recv_self = rng.uniform(0.9, 1.1, 4)
    recv = rng.uniform(0.9, 1.1, (4, 4))  # each DG's own copies of the others
    ref = 1.02
    e = tracking_errors(g, recv_self, recv, ref)
    for i in range(4):
        # independent re-implementation of the weighted sum
        expect = sum(adj[i][j] * (recv_self[i] - recv[i][j]) for j in range(4))
        expect += pin[i] * (recv_self[i] - ref)
        assert e[i] == pytest.approx(expect, rel=1e-12)
    # uncorrupted channels: every DG receives the same values
    np.testing.assert_array_equal(
        tracking_errors(g, recv_self, recv_self, ref),
        tracking_errors(g, recv_self, np.tile(recv_self, (4, 1)), ref))


def test_length_mismatch_is_rejected():
    g = ring_graph(4)
    with pytest.raises(ValueError):
        tracking_errors(g, np.ones(3), np.ones(3), 1.0)


@given(st.floats(-10, 10), st.floats(-5, 5),
       st.lists(st.floats(-2, 2), min_size=4, max_size=4))
def test_linearity_and_translation(lam, shift, vals):
    g = ring_graph(4)
    values = np.array(vals)
    ref = 1.0
    e = tracking_errors(g, values, values, ref)
    np.testing.assert_allclose(tracking_errors(g, lam * values, lam * values, lam * ref),
                               lam * e, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(
        tracking_errors(g, values + shift, values + shift, ref + shift),
        e, rtol=1e-9, atol=1e-9)


def test_channel_layout():
    chans = ring_graph(4).channels()
    assert chans[:8] == [(i, i, sig) for i in range(4)
                         for sig in ("voltage", "frequency")]
    assert chans[8:12] == [(1, 0, "voltage"), (1, 0, "frequency"),
                           (3, 0, "voltage"), (3, 0, "frequency")]
    assert len(chans) == 24
