"""Closed-loop scenario execution: plant -> attack layer -> secondary control.

One scenario is one strictly sequential fixed-step simulation; the trace is
decimated to the configured sampling period.  Everything is deterministic:
the same configuration produces byte-identical CSV output.

Each step k (t = k dt) runs, in order:

1. load events due by t replace the network (a new load epoch, whose
   ``NetworkParams.solver`` is built at the next solve);
2. ``step_plant``: the droop terms [n_Q Q; m_P P] of the state it reads,
   written into the secondary layer's input vector x, the droop outputs
   [v; w] from the set-points [V_n; w_n], the network solve and the
   filter/angle update.  It returns the new state and its workspace, which
   holds [v; w], the balance residual and the load currents;
3. the clean channel values are gathered from [v; w] straight into the
   front of x; on a sampling step they are recorded before each attack
   scales the channel vector in place by its gain vector, ``AttackSpec.gain(t)``
   on its targets and 1.0 elsewhere, in declaration order;
4. ``secondary_update`` on x gives the next set-points, and each
   ANN-controlled DG overwrites its voltage set-point.

Every per-step NumPy call writes its result with ``out`` into buffers built
once per run, on same-shape operands and views made once (the exceptions are
an attack's refill of its gain vector's targets when ``gain(t)`` changes, and
the load currents on sampling steps).  No call takes a slow path: products
are ``a.dot(b, out)``, copies slice assignments (no Python-level dispatch),
|u|^2 sums real dots on float views (no complex ``np.vdot``), and no ufunc
writes in place to a one-entry array:

- ``plant.PlantWorkspace``: two ``PlantState``s that take turns (a step reads
  one and writes the other, so the old state is still whole when the step
  records it), the droop terms' row views and the droop outputs [v; w], the
  complex DG voltages and powers with a (n, 2) float view of the powers, the
  stacked network product's DG currents and branch voltages (with float and
  load-row views), and the constants n_Q, m_P and dt omega_c;
- ``secondary.ConsensusMap``: x = [channels, droop terms, v_ref, w_ref], its
  one gather of every difference's two ends, the per-edge sums and the
  tracking error, with gains and pinning at the (2, n) set-point shape;
- ``ann.AnnKernel``, one per ANN-controlled DG, which picks that DG's
  channels itself: its feature row [r, r, v*] and the normalised row,
  hidden layer, output before its bias and output;
- here: each attack's gain vector, the (2, n) set-points, which
  ``secondary_update`` rewrites in place once the step has recorded and
  consumed them, and the trace, whose block (``Trace.data``) a sample enters
  through views made once per run.

The returned trace is this run's block, cut to the recorded samples, so a
later run never changes it.
"""

from __future__ import annotations

import math

import numpy as np

from . import ann as annmod
from .attack import resolve_channels
from .graph import SIGNALS
from .plant import DivergenceError, NetworkError, PlantWorkspace, apply_load_event, step_plant
from .scenario import ScenarioConfig
from .secondary import ConsensusMap, secondary_update
from .trace import Trace


def run_scenario(config: ScenarioConfig, ann_params=None) -> Trace:
    """Simulate one scenario and return the recorded trace.

    Divergence is reported on the returned trace (``diverged`` flag and
    truncated arrays), not raised, and so is a network that a load event
    after t = 0 makes singular; at t = 0 a ``NetworkError`` is raised.
    """
    if "ann" in config.controllers and ann_params is None:
        if config.ann_model_path is None:
            raise ValueError("scenario uses the ANN controller but no model was given")
        ann_params = annmod.load_model(config.ann_model_path)

    graph = config.graph
    n = graph.n
    model = config.model
    channels = graph.channels()
    # per attack: its targets and its gain vector, 1.0 off them and held[k] on them
    attacks = [(spec, np.array(resolve_channels(spec, channels)), np.ones(len(channels)))
               for spec in config.attacks]
    held = [1.0] * len(attacks)
    cmap = ConsensusMap(graph, channels, config.gains, config.v_ref, config.w_ref)
    # clean channel k carries [v; w].flat[gather[k]]
    gather = np.array([SIGNALS.index(sig) * n + s for s, d, sig in channels])

    dt = config.dt
    ann_kernels = [(i, annmod.AnnKernel(ann_params, config.v_ref, channels, i))
                   for i, name in enumerate(config.controllers) if name == "ann"]

    stride, n_steps = config.sample_stride, config.n_steps
    trace = Trace.empty(n_steps // stride + 1, n, channels, len(model.network.loads))
    trace.v_ref, trace.w_ref = config.v_ref, config.w_ref
    rec_t, rec_att = trace.t, trace.attack_active
    rec_clean, rec_recv, rec_load = trace.ch_clean, trace.ch_recv, trace.load_current
    # adjacent pairs of DG_SIGNALS: [v, w], [P, Q], [V_n, w_n]
    rec_vw, rec_pq, rec_sp = (trace.dg_block[:, :, k:k + 2] for k in (0, 2, 4))

    recv = cmap.recv
    ws = PlantWorkspace(model, dt, cmap.droop)
    state = model.initial_state()
    setpoints = np.array([np.full(n, config.v_ref), np.full(n, config.w_ref)])
    vw_t, sp_t = ws.vw.T, setpoints.T           # (n, 2) per DG
    events = list(config.load_events)
    next_event = events[0].t if events else math.inf

    diverged_time = None
    max_residual = 0.0
    sample = 0

    for k in range(n_steps + 1):
        t = k * dt
        if next_event <= t + 1e-12:
            while events and events[0].t <= t + 1e-12:
                ev = events.pop(0)
                model = apply_load_event(model, ev.bus, ev.r, ev.x)
            next_event = events[0].t if events else math.inf

        try:
            new_state, out = step_plant(model, state, setpoints, dt, t, ws)
        except DivergenceError as exc:
            diverged_time = exc.t
            break
        except NetworkError:    # only a load epoch's first solve raises it
            if k == 0:          # the scenario's own network: a config error
                raise
            diverged_time = t
            break
        if out.balance_residual > max_residual:
            max_residual = out.balance_residual

        # gather is in range by construction; "clip" skips the buffered copy of "raise"
        out.vw.take(gather, out=recv, mode="clip")
        record = k % stride == 0
        if record:
            rec_clean[sample] = recv
        for k_atk, (spec, targets, gv) in enumerate(attacks):
            g = spec.gain(t)
            if g != 1.0:
                if g != held[k_atk]:
                    gv[targets] = held[k_atk] = g
                np.multiply(recv, gv, recv)

        if record:
            rec_t[sample] = t
            rec_vw[sample] = vw_t
            rec_pq[sample] = state.pq_t
            rec_sp[sample] = sp_t
            rec_recv[sample] = recv
            rec_load[sample] = out.load_current
            rec_att[sample] = int(any(s.active(t) for s, *_ in attacks))
            sample += 1

        if k == n_steps:
            break

        # the secondary layer consumes the received (possibly corrupted)
        # values and the droop terms step_plant wrote; in place: this step
        # has recorded and consumed the old set-points
        secondary_update(cmap, setpoints, dt, setpoints)
        for i, kernel in ann_kernels:
            setpoints[0, i] = annmod.ann_controller(kernel, recv)

        state = new_state

    trace.data, trace.attack_active = trace.data[:sample], rec_att[:sample]
    trace.diverged, trace.diverged_time = diverged_time is not None, diverged_time
    trace.max_power_residual = max_residual
    return trace
