"""Closed-loop scenario execution: plant -> attack layer -> secondary control.

One scenario is one strictly sequential fixed-step simulation; the trace is
decimated to the configured sampling period.  Everything is deterministic:
the same configuration produces byte-identical CSV output.  The config holds
all a run needs, the ANN model of its ``"ann"`` DGs included
(``ScenarioConfig.ann_model``), so a run opens no file.

A run starts from ``config.start``, a ``scenario.RunStart`` (None is the
flat start at step 0, on the same path): the buffers ``ws.delta``,
``ws.pq_flat`` and ``setpoints.ravel()`` in order, before its sample step
``step``.  Steps keep their absolute k, so t, the rows and the load epochs
have the bits of a run from step 0; the first step applies every load event
whose step it has reached.  At each sample step in ``fork_steps`` the run
hands out its ``RunStart`` in ``Trace.forks``, on the sampling branch (no
per-step work): a run started there repeats this run's rows, bit for bit.

Each step k (t = k dt) runs, in order:

1. on a sampling step, the filtered powers [P, Q] are recorded (the step
   then updates them in place) and a fork step hands out its ``RunStart``;
2. the load events on step k (``ScenarioConfig.first_step``, once per run)
   change one network, which ``PlantWorkspace.use`` puts on the plant: a
   new load epoch, whose solver and buffers it makes;
3. ``step_plant``: the droop terms [n_Q Q; m_P P] of the plant state,
   written into the secondary layer's input vector x, the droop outputs
   [v; w] from the set-points [V_n; w_n], the network solve and the
   in-place filter/angle update.  Its workspace holds [v; w], the balance
   residual and the load currents;
4. the clean channel values are gathered from [v; w] straight into the
   front of x (they are not recorded: ``Trace.ch_clean`` gathers the same
   values from the recorded [v; w]); each attack scales the channel vector
   in place by its gain vector, ``AttackSpec.gain(t)`` on its targets and
   1.0 elsewhere, in declaration order;
5. ``secondary_update`` on x rewrites the set-points in place, and each
   ANN-controlled DG overwrites its voltage set-point.

Every per-step NumPy call writes its result with ``out`` into buffers built
once per run, on same-shape operands and views made once (the exceptions are
an attack's refill of its gain vector's targets when ``gain(t)`` changes, and
the load currents on sampling steps).  No call takes a slow path: products
are ``a.dot(b, out)``, copies slice assignments (no Python-level dispatch),
|u|^2 sums real dots on float views (no complex ``np.vdot``), and no ufunc
writes in place to a one-entry array:

- ``plant.PlantWorkspace``, the one plant object: the state (angles, the
  imaginary part of j delta, and the (n, 2) filtered powers with [P; Q]
  row views), the filter's increment, the droop terms' row views and the
  droop outputs [v; w], the complex DG voltages and powers with a (n, 2)
  float view of the powers, the constants dt, n_Q, m_P and dt omega_c, and
  the load epoch's network and solver with the stacked network product's
  DG currents and branch voltages (and their float and load-row views),
  made once per load epoch by ``use``;
- ``secondary.ConsensusMap``: x = [channels, droop terms, v_ref, w_ref], its
  one gather of every difference's two ends, the per-edge sums and the
  tracking error, with gains, pinning and dt at the (2, n) set-point shape;
- ``ann.AnnKernel``, one per ANN-controlled DG: the x positions of the
  ``ann.FEATURES`` table (``ConsensusMap.positions``), its feature row
  [r, r, v*] taken from x, the normalised row, hidden layer and outputs;
- here: each attack's gain vector, the (2, n) set-points, which
  ``secondary_update`` rewrites once the step has recorded and consumed
  them, and the trace, whose block (``Trace.data``) a sample enters
  through views made once per run: t, the DG columns in [v, w], [P, Q] and
  [V_n, w_n] pairs, the received channels, the load currents and the flag.

The returned trace is this run's block, cut to the recorded samples, so a
later run never changes it.
"""

from __future__ import annotations

import numpy as np

from . import ann as annmod
from .attack import resolve_channels
from .plant import DivergenceError, NetworkError, PlantWorkspace, apply_load_event, step_plant
from .scenario import RunStart, ScenarioConfig
from .secondary import ConsensusMap, secondary_update
from .trace import CH_SOURCE, Trace


def run_scenario(config: ScenarioConfig, fork_steps=()) -> Trace:
    """Simulate one scenario and return the recorded trace.

    The run starts from ``config.start`` (the flat start at step 0 when it
    is None) and records the sample steps from there on.  ``fork_steps`` are
    sample steps of the run; the trace's ``forks`` maps each one that the
    run reached to the ``RunStart`` taken before it (a run that diverged
    before a step has no entry for it).

    Divergence is reported on the returned trace (its ``diverged_time``,
    ``diverged_cause`` and a block cut there), not raised, and so is a
    network that load events after step 0 make singular; at step 0 a
    ``NetworkError`` is raised.
    """
    graph = config.graph
    n = graph.n
    channels = graph.channels()
    # per attack: its targets and its gain vector, 1.0 off them and held[k] on them
    attacks = [(spec, np.array(resolve_channels(spec, channels)), np.ones(len(channels)))
               for spec in config.attacks]
    held = [1.0] * len(attacks)
    dt = config.dt
    cmap = ConsensusMap(graph, channels, config.gains, config.v_ref, config.w_ref, dt)
    # clean channel k carries [v; w].flat[gather[k]]
    gather = np.array([CH_SOURCE[sig] * n + s for s, d, sig in channels])
    ann_kernels = [(i, annmod.AnnKernel(config.ann_model, cmap.positions(annmod.FEATURES, i)))
                   for i, name in enumerate(config.controllers) if name == "ann"]

    stride, last = config.sample_stride, config.last_step
    start = config.start or RunStart.flat(n, config.v_ref, config.w_ref)
    fork_steps = set(fork_steps)
    for fork in fork_steps:
        if not (start.step <= fork <= last and fork % stride == 0):
            raise ValueError(f"fork step {fork} is not a sample step of steps "
                             f"{start.step} to {last}")
    trace = Trace.empty(last // stride - start.step // stride + 1, n, channels,
                        len(config.model.network.loads))
    trace.v_ref, trace.w_ref = config.v_ref, config.w_ref
    rec_t, rec_att = trace.t, trace.attack_active
    rec_recv, rec_load = trace.ch_recv, trace.load_current
    # adjacent pairs of DG_SIGNALS: [v, w], [P, Q], [V_n, w_n]
    rec_vw, rec_pq, rec_sp = (trace.dg_block[:, :, k:k + 2] for k in (0, 2, 4))

    x, recv = cmap.x, cmap.recv
    ws = PlantWorkspace(config.model, dt, cmap.droop)
    ws.delta[:], ws.pq_flat[:] = start.state[:n], start.state[n:3 * n]
    setpoints = np.array(start.state[3 * n:]).reshape(2, n)
    vw_t, pq_t, sp_t = ws.vw.T, ws.pq_t, setpoints.T   # (n, 2) per DG
    # (step, bus, r, x) per load event, in step order, then a step never reached
    events = [(config.first_step(ev.due, ev.t), ev.bus, ev.r, ev.x) for ev in config.load_events]
    events.append((last + 1,))

    max_residual = 0.0
    sample = 0

    # the step guards report an overflow or NaN as the run's divergence: no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(start.step, last + 1):
            t = k * dt
            record = k % stride == 0
            if record:   # a step updates P and Q in place; a diverged step's row is cut
                rec_pq[sample] = pq_t
                if k in fork_steps:
                    trace.forks[k] = RunStart(k, tuple(ws.delta.tolist() + ws.pq_flat.tolist()
                                                       + setpoints.ravel().tolist()))
            try:
                if k >= events[0][0]:   # from a later start, every event due by then
                    net = ws.net
                    while k >= events[0][0]:
                        net = apply_load_event(net, *events.pop(0)[1:])
                    ws.use(net)
                step_plant(ws, setpoints, t)
            except DivergenceError as exc:
                trace.diverged_time, trace.diverged_cause = exc.t, exc.what
                break
            except NetworkError as exc:   # only ws.use raises it: a singular load epoch
                if k == 0:                # the scenario's own network: a config error
                    raise
                trace.diverged_time, trace.diverged_cause = t, str(exc)
                break
            if ws.balance_residual > max_residual:
                max_residual = ws.balance_residual

            # gather is in range by construction; "clip" skips the buffered copy of "raise"
            ws.vw.take(gather, out=recv, mode="clip")
            for k_atk, (spec, targets, gv) in enumerate(attacks):
                g = spec.gain(t)
                if g != 1.0:
                    if g != held[k_atk]:
                        gv[targets] = held[k_atk] = g
                    np.multiply(recv, gv, recv)

            if record:
                rec_t[sample] = t
                rec_vw[sample] = vw_t
                rec_sp[sample] = sp_t
                rec_recv[sample] = recv
                rec_load[sample] = ws.load_current
                rec_att[sample] = any(s.active(t) for s, *_ in attacks)
                sample += 1

            if k == last:
                break

            # the secondary layer consumes the received (possibly corrupted)
            # values and the droop terms step_plant wrote; in place: this step
            # has recorded and consumed the old set-points
            secondary_update(cmap, setpoints)
            for i, kernel in ann_kernels:
                setpoints[0, i] = annmod.ann_controller(kernel, x)

    trace.data = trace.data[:sample]
    trace.max_power_residual = max_residual
    return trace
