"""Distributed cooperative secondary control layer.

Each DG integrates its neighborhood tracking error to steer voltage and
frequency to the global references.  The voltage law is

    dV_n,i/dt = -c_v * [ sum_j a_ij (vh_ii - vh_ij) + b_i (vh_ii - v*) ]

over *received* channel values vh (corrupted by the attack layer when one is
active); the frequency law adds the droop-weighted active power sharing term

    dw_n,i/dt = -c_w * [ e_w,i + sum_j a_ij (m_P,i P_i - m_P,j P_j) ].

This consensus-integral realization is the baseline named "pi" in scenario
files; the "ann" controller replaces only DG voltage set-points (frequency
always stays on the baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SIGNALS, CommGraph

CONTROLLER_NAMES = ("pi", "ann")


class ControllerConfigError(ValueError):
    """Unknown controller name."""


@dataclass(frozen=True)
class SecondaryGains:
    c_v: float = 5.0   # voltage consensus integral gain, 1/s
    c_w: float = 5.0   # frequency consensus integral gain, 1/s

    def __post_init__(self):
        if self.c_v <= 0 or self.c_w <= 0:
            raise ValueError("secondary gains must be positive")


class ConsensusMap:
    """Constants and buffers of ``secondary_update`` for one graph, channel
    list, gain set and reference pair, built once per run.

    The update reads one vector x: the received channel values in the order
    of ``channels``, then m_P,i P_i for each DG.  Each graph edge j -> i
    contributes the differences (vh_ii - vh_ij) for both signals and
    (m_P,i P_i - m_P,j P_j); one (E, n) product with the edge weights a_ij
    sums them per destination DG.  Gains, references and pinning are held at
    the (2, n) shape of the set-points, so no operation broadcasts, and the
    gathered values land in buffers owned by the map.
    """

    def __init__(self, graph: CommGraph, channels: list[tuple[int, int, str]],
                 gains: SecondaryGains, v_ref: float, w_ref: float):
        n, c = graph.n, len(channels)
        pos = {ch: k for k, ch in enumerate(channels)}
        self.x_shape = (c + n,)
        self.own = np.array([[pos[i, i, sig] for i in range(n)] for sig in SIGNALS])
        edges = [(s, d) for (s, d, sig) in channels if s != d and sig == SIGNALS[0]]
        # [head; tail], rows voltage, frequency, weighted power: x[head] - x[tail]
        # per edge
        self.ends = np.array([[[pos[d, d, sig] for s, d in edges] for sig in SIGNALS]
                              + [[c + d for s, d in edges]],
                              [[pos[s, d, sig] for s, d in edges] for sig in SIGNALS]
                              + [[c + s for s, d in edges]]], dtype=int)
        self.weights = np.zeros((len(edges), n))
        for k, (s, d) in enumerate(edges):
            self.weights[k, d] = graph.adjacency[d, s]
        self.pinning = np.array([graph.pinning, graph.pinning])
        self.gains = np.array([np.full(n, gains.c_v), np.full(n, gains.c_w)])
        self.references = np.array([np.full(n, v_ref), np.full(n, w_ref)])
        self.x_ends = np.empty(self.ends.shape)
        self.x_head, self.x_tail = self.x_ends
        self.sums = np.empty((3, n))
        self.sums_vw, self.sums_p = self.sums[:2], self.sums[2]
        self.x_own = np.empty((2, n))
        self.e = np.empty((2, n))
        self.e_w = self.e[1]


def secondary_update(cmap: ConsensusMap, x: np.ndarray, setpoints: np.ndarray,
                     dt: float, out: np.ndarray | None = None) -> np.ndarray:
    """One forward-Euler step of both set-point integrators.

    setpoints is (2, n) [V_n; w_n]; x is laid out as ``ConsensusMap``
    describes.  The new set-points, a pure function of the inputs, are
    written to ``out`` (a fresh array when none is given; it may be
    ``setpoints`` itself) and returned.  x is only read.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if x.shape != cmap.x_shape:
        raise ValueError(f"x must have shape {cmap.x_shape}, got {x.shape}")
    if out is None:
        out = np.empty_like(setpoints)
    # the indices are in range for this shape of x, so mode "clip" only skips
    # take's buffered copy
    x.take(cmap.ends, out=cmap.x_ends, mode="clip")
    np.subtract(cmap.x_head, cmap.x_tail, cmap.x_head)
    np.dot(cmap.x_head, cmap.weights, out=cmap.sums)
    e = cmap.e
    x.take(cmap.own, out=cmap.x_own, mode="clip")
    np.subtract(cmap.x_own, cmap.references, cmap.x_own)
    np.multiply(cmap.pinning, cmap.x_own, cmap.x_own)
    np.add(cmap.sums_vw, cmap.x_own, e)
    np.add(cmap.e_w, cmap.sums_p, cmap.e_w)
    np.multiply(cmap.gains, e, e)
    np.multiply(e, dt, e)
    return np.subtract(setpoints, e, out)


def check_controller_name(name: str) -> str:
    if name not in CONTROLLER_NAMES:
        raise ControllerConfigError(
            f"unknown controller {name!r}; expected one of {CONTROLLER_NAMES}")
    return name
