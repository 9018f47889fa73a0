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
    """Constants of ``secondary_update`` for one graph, channel list, gain
    set and reference pair, built once per run.

    The update reads one vector x: the received channel values in the order
    of ``channels``, then m_P,i P_i for each DG.  Each graph edge j -> i
    contributes the differences (vh_ii - vh_ij) for both signals and
    (m_P,i P_i - m_P,j P_j); one (E, n) product with the edge weights a_ij
    sums them per destination DG.
    """

    def __init__(self, graph: CommGraph, channels: list[tuple[int, int, str]],
                 gains: SecondaryGains, v_ref: float, w_ref: float):
        n, c = graph.n, len(channels)
        pos = {ch: k for k, ch in enumerate(channels)}
        self.own = np.array([[pos[i, i, sig] for i in range(n)] for sig in SIGNALS])
        edges = [(s, d) for (s, d, sig) in channels if s != d and sig == SIGNALS[0]]
        # rows: voltage, frequency, weighted power; x[head] - x[tail] per edge
        self.head = np.array([[pos[d, d, sig] for s, d in edges] for sig in SIGNALS]
                             + [[c + d for s, d in edges]], dtype=int)
        self.tail = np.array([[pos[s, d, sig] for s, d in edges] for sig in SIGNALS]
                             + [[c + s for s, d in edges]], dtype=int)
        self.weights = np.zeros((len(edges), n))
        for k, (s, d) in enumerate(edges):
            self.weights[k, d] = graph.adjacency[d, s]
        self.pinning = graph.pinning
        self.gains = np.array([[gains.c_v], [gains.c_w]])
        self.references = np.array([[v_ref], [w_ref]])


def secondary_update(cmap: ConsensusMap, x: np.ndarray, setpoints: np.ndarray,
                     dt: float) -> np.ndarray:
    """One forward-Euler step of both set-point integrators.

    setpoints is (2, n) [V_n; w_n]; x is laid out as ``ConsensusMap``
    describes.  Returns fresh set-points; a pure function of its inputs.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    sums = np.dot(x[cmap.head] - x[cmap.tail], cmap.weights)
    e = sums[:2] + cmap.pinning * (x[cmap.own] - cmap.references)
    e[1] += sums[2]
    return setpoints - cmap.gains * e * dt


def check_controller_name(name: str) -> str:
    if name not in CONTROLLER_NAMES:
        raise ControllerConfigError(
            f"unknown controller {name!r}; expected one of {CONTROLLER_NAMES}")
    return name
