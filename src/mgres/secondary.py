"""Distributed cooperative secondary control layer.

Each DG integrates its neighborhood tracking error to steer voltage and
frequency to the global references.  The voltage law is

    dV_n,i/dt = -c_v * [ sum_j a_ij (vh_ii - vh_ij) + b_i (vh_ii - v*) ]

over *received* channel values vh (corrupted by the attack layer when one is
active); the frequency law adds the droop-weighted active power sharing term

    dw_n,i/dt = -c_w * [ e_w,i + sum_j a_ij (m_P,i P_i - m_P,j P_j) ].

This consensus-integral realization is the baseline controller, named "pi"
in scenario files.  A controller that replaces it replaces only a DG's
voltage set-point: frequency always stays on the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ann import TRIPLE, feature_channels
from .graph import SIGNALS, CommGraph

@dataclass(frozen=True)
class SecondaryGains:
    c_v: float = 5.0   # voltage consensus integral gain, 1/s
    c_w: float = 5.0   # frequency consensus integral gain, 1/s

    def __post_init__(self):
        for name in ("c_v", "c_w"):
            if not 0 < (v := getattr(self, name)) < np.inf:
                raise ValueError(f"secondary gain {name} must be positive and finite, got {v}")


class ConsensusMap:
    """Constants and buffers of ``secondary_update`` for one graph, channel
    list, gain set, reference pair and dt, built once per run.

    The map owns the update's input x = [received channel values in the
    order of ``channels``, n_Q,i Q_i and m_P,i P_i per DG, v_ref, w_ref] and
    hands out its ``recv`` and (2, n) ``droop`` views for the caller to fill.
    One take gathers [edge heads, own values] over [edge tails, references]
    and one subtract forms every difference: (vh_ii - vh_ij) for both signals
    and (m_P,i P_i - m_P,j P_j) per edge j -> i, then (vh_ii - ref) per DG.
    One (E, n) product with the edge weights a_ij sums the edge terms per
    destination DG.  Gains, pinning and dt are held at the (2, n) shape of
    the set-points, so no operation broadcasts, and every result lands in a
    buffer owned by the map.
    """

    def __init__(self, graph: CommGraph, channels: list[tuple[int, int, str]],
                 gains: SecondaryGains, v_ref: float, w_ref: float, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        n, c = graph.n, len(channels)
        self.channels = channels
        pos = {ch: k for k, ch in enumerate(channels)}
        self.x = np.empty(c + 2 * n + 2)
        self.x[-2:] = v_ref, w_ref
        self.recv, self.droop = self.x[:c], self.x[c:c + 2 * n].reshape(2, n)
        edges = [(s, d) for (s, d, sig) in channels if s != d and sig == SIGNALS[0]]
        p, ref = c + n, c + 2 * n   # m_P,i P_i is x[p + i]; v_ref, w_ref are x[ref], x[ref + 1]
        # [head; tail]: per edge voltage, frequency and weighted power, then
        # per DG its own values over the references
        self.ends = np.array([
            [pos[d, d, sig] for sig in SIGNALS for s, d in edges] + [p + d for s, d in edges]
            + [pos[i, i, sig] for sig in SIGNALS for i in range(n)],
            [pos[s, d, sig] for sig in SIGNALS for s, d in edges] + [p + s for s, d in edges]
            + [ref] * n + [ref + 1] * n])
        self.weights = np.zeros((len(edges), n))
        for k, (s, d) in enumerate(edges):
            self.weights[k, d] = graph.adjacency[d, s]
        self.pinning = np.array([graph.pinning, graph.pinning])
        self.gains = np.array([np.full(n, gains.c_v), np.full(n, gains.c_w)])
        self.dt = np.full((2, n), dt)
        self.x_ends = np.empty(self.ends.shape)
        self.diff, e3 = self.x_ends[0], 3 * len(edges)   # head - tail, in place
        self.diff_edges = self.diff[:e3].reshape(3, len(edges))
        self.diff_own = self.diff[e3:].reshape(2, n)
        self.sums = np.empty((3, n))
        self.sums_vw, self.sums_p = self.sums[:2], self.sums[2]
        self.e = np.empty((2, n))
        self.e_w = self.e[1]

    def positions(self, names, dg: int) -> list[int]:
        """The x position of each named source of DG ``dg``: a received voltage
        of its triple (``ann.TRIPLE``, by ``feature_channels``) or "v_ref"."""
        at = dict(zip(TRIPLE, feature_channels(self.channels, dg)), v_ref=len(self.x) - 2)
        return [at[name] for name in names]


def secondary_update(cmap: ConsensusMap, setpoints: np.ndarray) -> None:
    """One forward-Euler step of both set-point integrators, in place.

    setpoints is (2, n) [V_n; w_n]; the input is the map's ``x``, laid out
    as ``ConsensusMap`` describes.  The new set-points, a pure function of
    x and the set-points, overwrite ``setpoints``.  x is only read.
    """
    # the indices are in range for the map's x, so mode "clip" only skips
    # take's buffered copy
    cmap.x.take(cmap.ends, out=cmap.x_ends, mode="clip")
    diff, own, e = cmap.diff, cmap.diff_own, cmap.e
    np.subtract(diff, cmap.x_ends[1], diff)
    cmap.diff_edges.dot(cmap.weights, cmap.sums)
    np.multiply(cmap.pinning, own, own)
    np.add(cmap.sums_vw, own, e)
    np.add(cmap.e_w, cmap.sums_p, cmap.e_w)
    np.multiply(cmap.gains, e, e)
    np.multiply(e, cmap.dt, e)
    np.subtract(setpoints, e, setpoints)
