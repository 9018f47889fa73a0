"""Closed-loop scenario execution: plant -> attack layer -> secondary control.

One scenario is one strictly sequential fixed-step simulation; the trace is
decimated to the configured sampling period.  Everything is deterministic:
the same configuration produces byte-identical CSV output.

Each step k (t = k dt) runs, in order:

1. load events due by t replace the network (a new load epoch, whose
   ``NetworkParams.solver`` is built at the next solve);
2. ``step_plant``: droop outputs [v; w] from the set-points [V_n; w_n], the
   network solve and the filter/angle update.  It returns the new state and
   its workspace, which holds [v; w], the balance residual and ``bus_v``;
3. the clean channel values are gathered from [v; w] straight into the
   front of the secondary layer's input vector x; on a sampling step they are
   recorded before the attack layer scales its targets in place by
   ``AttackSpec.gain(t)``, so the channel vector is never copied;
4. ``secondary_update`` on x, whose tail holds m_P,i P_i, gives the next
   set-points, and each ANN-controlled DG overwrites its voltage set-point.

Every per-step NumPy call writes its result with ``out`` into buffers built
once per run, on same-shape operands and views made once (the exceptions are
the attack layer's indexed scaling, on attacked steps only, and the copies
into the record arrays on sampling steps):

- ``plant.PlantWorkspace``: two ``PlantState``s that take turns (a step reads
  one and writes the other, so the old state is still whole when the
  secondary layer reads its P), the droop outputs [v; w], the complex DG
  voltages, currents and powers with a (n, 2) float view of the powers, the
  branch voltages, and the constants n_Q, m_P and dt omega_c;
- ``secondary.ConsensusMap``: the edge gathers, the per-edge sums, the
  pinning term and the tracking error, with gains, references and pinning
  at the (2, n) set-point shape;
- ``ann.AnnKernel``, one per ANN-controlled DG: its feature row [r, r, v*]
  and the normalised row, hidden layer and output;
- here: x, the (2, n) set-points, which ``secondary_update`` rewrites in
  place once the step has recorded and consumed them, and the record arrays.

The returned trace's arrays are views of this run's record arrays, so a later
run never changes them.
"""

from __future__ import annotations

import math

import numpy as np

from . import ann as annmod
from .attack import resolve_channels
from .graph import SIGNALS, inbound_voltage_channels
from .plant import DivergenceError, PlantWorkspace, apply_load_event, step_plant
from .scenario import ScenarioConfig
from .secondary import ConsensusMap, secondary_update
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
    attacks = [(spec, np.array(resolve_channels(spec, channels)))
               for spec in config.attacks]
    cmap = ConsensusMap(graph, channels, config.gains, config.v_ref, config.w_ref)
    # clean channel k carries [v; w].flat[gather[k]]
    gather = np.array([SIGNALS.index(sig) * n + s for s, d, sig in channels])

    dt, v_ref = config.dt, config.v_ref
    # one kernel per ANN-controlled DG on its inbound voltage triple (self
    # first, then by src)
    ann_kernels: list[tuple[int, annmod.AnnKernel]] = []
    for i, name in enumerate(config.controllers):
        if name == "ann":
            idx = inbound_voltage_channels(channels, i)
            if len(idx) != 3:
                raise ValueError(
                    f"ANN controller on DG{i + 1} needs exactly 2 in-neighbors")
            ann_kernels.append((i, annmod.AnnKernel(ann_params, v_ref, idx)))

    stride, n_steps = config.sample_stride, config.n_steps
    n_samples = n_steps // stride + 1

    # preallocated record arrays; rec_dg rows follow DG_SIGNALS
    rec_t = np.zeros(n_samples)
    rec_dg = np.zeros((n_samples, len(DG_SIGNALS), n))
    rec_clean = np.zeros((n_samples, len(channels)))
    rec_recv = np.zeros_like(rec_clean)
    rec_load = np.zeros((n_samples, len(model.network.loads)))
    rec_att = np.zeros(n_samples, dtype=int)

    x = np.empty(len(channels) + n)
    recv, weighted_p = x[:len(channels)], x[len(channels):]
    m_p = model.m_p
    ws = PlantWorkspace(model, dt)
    state = model.initial_state()
    setpoints = np.array([np.full(n, config.v_ref), np.full(n, config.w_ref)])
    events = list(config.load_events)
    next_event = events[0].t if events else math.inf
    load_y = np.array([ld.admittance for ld in model.network.loads])
    load_bus = np.array([ld.bus for ld in model.network.loads], dtype=int)

    diverged_time = None
    max_residual = 0.0
    sample = 0

    for k in range(n_steps + 1):
        t = k * dt
        if next_event <= t + 1e-12:
            while events and events[0].t <= t + 1e-12:
                ev = events.pop(0)
                model = apply_load_event(model, ev.bus, ev.r, ev.x)
            load_y = np.array([ld.admittance for ld in model.network.loads])
            next_event = events[0].t if events else math.inf

        try:
            new_state, out = step_plant(model, state, setpoints, dt, t, ws)
        except DivergenceError as exc:
            diverged_time = exc.t
            break
        if out.balance_residual > max_residual:
            max_residual = out.balance_residual

        # gather is in range by construction; "clip" skips the buffered copy of "raise"
        out.vw.take(gather, out=recv, mode="clip")
        record = k % stride == 0
        if record:
            rec_clean[sample] = recv
        for spec, targets in attacks:
            g = spec.gain(t)
            if g != 1.0:
                recv[targets] = recv[targets] * g

        if record:
            rec_t[sample] = t
            rec_dg[sample, 0:2] = out.vw
            rec_dg[sample, 2:4] = state.pq
            rec_dg[sample, 4:6] = setpoints
            rec_recv[sample] = recv
            rec_load[sample] = np.abs(out.bus_v[load_bus] * load_y)
            rec_att[sample] = int(any(s.active(t) for s, _ in attacks))
            sample += 1

        if k == n_steps:
            break

        # secondary layer consumes the received (possibly corrupted) values
        np.multiply(m_p, state.p, weighted_p)
        # in place: this step has recorded and consumed the old set-points
        secondary_update(cmap, x, setpoints, dt, setpoints)
        for i, kernel in ann_kernels:
            setpoints[0, i] = annmod.ann_controller(kernel, recv)

        state = new_state

    return Trace(
        t=rec_t[:sample],
        dg={sig: rec_dg[:sample, j] for j, sig in enumerate(DG_SIGNALS)},
        channels=channels, ch_clean=rec_clean[:sample], ch_recv=rec_recv[:sample],
        load_buses=list(load_bus), load_current=rec_load[:sample],
        attack_active=rec_att[:sample],
        v_ref=config.v_ref, w_ref=config.w_ref,
        diverged=diverged_time is not None, diverged_time=diverged_time,
        max_power_residual=max_residual,
    )
