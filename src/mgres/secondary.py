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

from .graph import CommGraph, tracking_errors

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


@dataclass(frozen=True)
class SecondaryState:
    v_n: np.ndarray   # voltage set-points handed to droop, pu
    w_n: np.ndarray   # frequency set-points, rad/s


def secondary_update(gains: SecondaryGains, graph: CommGraph,
                     recv_v_self: np.ndarray, recv_v: np.ndarray,
                     recv_w_self: np.ndarray, recv_w: np.ndarray,
                     weighted_p: np.ndarray,
                     v_ref: float, w_ref: float,
                     state: SecondaryState, dt: float) -> SecondaryState:
    """One forward-Euler step of both set-point integrators.

    weighted_p[i] is m_P,i * P_i.  Pure function of its inputs.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    e_v = tracking_errors(graph, recv_v_self, recv_v, v_ref)
    e_w = tracking_errors(graph, recv_w_self, recv_w, w_ref)
    p_share = (graph.adjacency * (weighted_p[:, None] - weighted_p[None, :])).sum(axis=1)
    return SecondaryState(
        v_n=state.v_n - gains.c_v * e_v * dt,
        w_n=state.w_n - gains.c_w * (e_w + p_share) * dt,
    )


def check_controller_name(name: str) -> str:
    if name not in CONTROLLER_NAMES:
        raise ControllerConfigError(
            f"unknown controller {name!r}; expected one of {CONTROLLER_NAMES}")
    return name
