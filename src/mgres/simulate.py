"""Closed-loop scenario execution: plant -> attack layer -> secondary control.

One scenario is one strictly sequential fixed-step simulation; the trace is
decimated to the configured sampling period.  Everything is deterministic:
the same configuration produces byte-identical CSV output.
"""

from __future__ import annotations

import numpy as np

from . import ann as annmod
from .attack import resolve_channels
from .graph import SIGNALS, inbound_voltage_channels
from .plant import DivergenceError, apply_load_event, step_plant
from .scenario import ScenarioConfig
from .secondary import SecondaryState, secondary_update
from .trace import DG_SIGNALS, Trace


def run_scenario(config: ScenarioConfig, ann_params=None) -> Trace:
    """Simulate one scenario and return the recorded trace.

    Divergence is reported on the returned trace (``diverged`` flag and
    truncated arrays), not raised.
    """
    if "ann" in config.controllers and ann_params is None:
        if config.ann_model_path is None:
            raise ValueError("scenario uses the ANN controller but no model was given")
        ann_params = annmod.load_model(config.ann_model_path)

    graph = config.graph
    n = graph.n
    model = config.model
    channels = graph.channels()
    attack_targets = [np.array(resolve_channels(spec, channels))
                      for spec in config.attacks]

    # Clean values are gathered from [v, w]; received values scatter into the
    # secondary layer's self-loop vectors and (signal, dst, src) matrices.
    sig_k = np.array([SIGNALS.index(c[2]) for c in channels])
    src = np.array([c[0] for c in channels])
    dst = np.array([c[1] for c in channels])
    gather = sig_k * n + src
    loop = src == dst
    self_idx = np.zeros((len(SIGNALS), n), dtype=int)
    self_idx[sig_k[loop], dst[loop]] = np.flatnonzero(loop)
    edge = np.flatnonzero(~loop)
    scatter = (sig_k[edge], dst[edge], src[edge])

    # inbound voltage triples for ANN-controlled DGs (self first, then by src)
    ann_inputs: dict[int, np.ndarray] = {}
    for i, name in enumerate(config.controllers):
        if name == "ann":
            idx = inbound_voltage_channels(channels, i)
            if len(idx) != 3:
                raise ValueError(
                    f"ANN controller on DG{i + 1} needs exactly 2 in-neighbors")
            ann_inputs[i] = np.array(idx)

    m_p = model.m_p
    stride = config.sample_stride
    n_steps = config.n_steps
    n_samples = n_steps // stride + 1

    # preallocated record arrays
    rec_t = np.zeros(n_samples)
    rec_dg = {sig: np.zeros((n_samples, n)) for sig in DG_SIGNALS}
    rec_clean = np.zeros((n_samples, len(channels)))
    rec_recv = np.zeros_like(rec_clean)
    rec_load = np.zeros((n_samples, len(model.network.loads)))
    rec_att = np.zeros(n_samples, dtype=int)

    state = model.initial_state()
    sec = SecondaryState(v_n=np.full(n, config.v_ref),
                         w_n=np.full(n, config.w_ref))
    events = list(config.load_events)
    ev_ptr = 0
    load_y = np.array([ld.admittance for ld in model.network.loads])
    load_bus = np.array([ld.bus for ld in model.network.loads], dtype=int)

    diverged = False
    diverged_time = None
    max_residual = 0.0
    sample = 0

    for k in range(n_steps + 1):
        t = k * config.dt
        while ev_ptr < len(events) and events[ev_ptr].t <= t + 1e-12:
            ev = events[ev_ptr]
            model = apply_load_event(model, ev.bus, ev.r, ev.x)
            load_y = np.array([ld.admittance for ld in model.network.loads])
            ev_ptr += 1

        try:
            new_state, out = step_plant(model, state, sec.v_n, sec.w_n,
                                        config.dt, t=t)
        except DivergenceError as exc:
            diverged = True
            diverged_time = exc.t
            break
        max_residual = max(max_residual, out.solution.balance_residual)

        clean = np.concatenate((out.v, out.w))[gather]
        recv = clean.copy()
        for spec, targets in zip(config.attacks, attack_targets):
            g = spec.gain(t)
            if g != 1.0:
                recv[targets] *= g

        if k % stride == 0:
            rec_t[sample] = t
            rec_dg["v"][sample] = out.v
            rec_dg["w"][sample] = out.w
            rec_dg["P"][sample] = state.p
            rec_dg["Q"][sample] = state.q
            rec_dg["Vn"][sample] = sec.v_n
            rec_dg["wn"][sample] = sec.w_n
            rec_clean[sample] = clean
            rec_recv[sample] = recv
            rec_load[sample] = np.abs(out.solution.bus_v[load_bus] * load_y)
            rec_att[sample] = int(any(s.active(t) for s in config.attacks))
            sample += 1

        if k == n_steps:
            break

        # secondary layer consumes the received (possibly corrupted) values
        recv_self = recv[self_idx]
        recv_mat = np.zeros((len(SIGNALS), n, n))
        recv_mat[scatter] = recv[edge]
        sec = secondary_update(config.gains, graph, recv_self[0], recv_mat[0],
                               recv_self[1], recv_mat[1], m_p * state.p,
                               config.v_ref, config.w_ref, sec, config.dt)
        # secondary_update returns fresh arrays, safe to overwrite in place
        for i, idx in ann_inputs.items():
            sec.v_n[i] = annmod.ann_controller(ann_params, recv[idx], config.v_ref)

        state = new_state

    trace = Trace(
        t=rec_t[:sample], dg={k: v[:sample] for k, v in rec_dg.items()},
        channels=channels, ch_clean=rec_clean[:sample], ch_recv=rec_recv[:sample],
        load_buses=list(load_bus), load_current=rec_load[:sample],
        attack_active=rec_att[:sample],
        v_ref=config.v_ref, w_ref=config.w_ref,
        diverged=diverged, diverged_time=diverged_time,
        max_power_residual=max_residual,
    )
    return trace
