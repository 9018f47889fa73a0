"""Regulation metrics and the PI-vs-ANN comparison report.

The headline quantity is the voltage tracking error of the attacked DG,
eps_v(t) = |v_1(t) - v*|.  Post-attack statistics start 0.5 s after the
attack onset so the mitigation transient of either controller is excluded;
steady-state statistics average over the final 0.5 s of the trace, or over
the whole of a diverged trace that is shorter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .trace import Trace

STEADY_WINDOW = 0.5        # s, averaging window for steady-state statistics
POST_ATTACK_GUARD = 0.5    # s, transient excluded after attack onset
SETTLE_THRESHOLD = 0.02    # fractional voltage band for settling time
REPORT_OMITS = ("attack_start",)   # Metrics fields the compare report leaves out


class MetricsError(ValueError):
    pass


@dataclass
class Metrics:
    """Statistics of eps_v = |v_1 - v*| (the monitored DG) and of each DG's steady state."""
    eps_v_post_mean: float | None          # over the post-attack window
    eps_v_post_max: float | None
    voltage_ripple: float | None           # half peak-to-peak, post-attack
    steady_voltage_error_pct: np.ndarray   # per DG, final window
    steady_frequency_error_hz: np.ndarray  # per DG, final window
    settling_time: float | None            # s after attack onset; None = never
    attack_start: float | None
    diverged: bool
    diverged_time: float | None


def check_span(span: float) -> None:
    """Reject a trace span, in s, shorter than the steady window."""
    if STEADY_WINDOW > span:
        raise MetricsError(f"steady window {STEADY_WINDOW}s exceeds trace span {span:.3f}s")


def compute_metrics(trace: Trace, v_ref: float | None = None,
                    w_ref: float | None = None) -> Metrics:
    if len(trace.t) == 0:
        raise MetricsError("empty trace")
    v_ref = trace.v_ref if v_ref is None else v_ref
    w_ref = trace.w_ref if w_ref is None else w_ref
    if v_ref is None or w_ref is None:
        raise MetricsError("references are required (not carried by CSV traces)")
    if not trace.diverged:   # a run cut short: its whole span
        check_span(trace.t[-1] - trace.t[0])

    v = trace.dg["v"]
    w = trace.dg["w"]
    eps = np.abs(v[:, 0] - v_ref)

    att = np.flatnonzero(trace.attack_active)
    attack_start = float(trace.t[att[0]]) if att.size else None

    post_mean = post_max = ripple = None
    if attack_start is not None:
        post = trace.t >= attack_start + POST_ATTACK_GUARD
        if post.any():
            post_mean = float(eps[post].mean())
            post_max = float(eps[post].max())
            ripple = float((v[post, 0].max() - v[post, 0].min()) / 2.0)

    final = trace.t >= trace.t[-1] - STEADY_WINDOW
    steady_v = np.abs(v[final] - v_ref).mean(axis=0) / v_ref * 100.0
    steady_f = np.abs(w[final] - w_ref).mean(axis=0) / (2.0 * math.pi)

    settle = None
    if attack_start is not None:
        band = eps <= SETTLE_THRESHOLD * v_ref
        after = trace.t >= attack_start
        ok = band | ~after
        # first post-attack instant from which the band is never left again
        inside_from_here = np.flip(np.logical_and.accumulate(np.flip(ok)))
        cand = np.flatnonzero(inside_from_here & after)
        if cand.size:
            settle = float(trace.t[cand[0]] - attack_start)

    return Metrics(
        eps_v_post_mean=post_mean, eps_v_post_max=post_max, voltage_ripple=ripple,
        steady_voltage_error_pct=steady_v,
        steady_frequency_error_hz=steady_f,
        settling_time=settle, attack_start=attack_start,
        diverged=trace.diverged, diverged_time=trace.diverged_time,
    )


@dataclass
class ComparisonReport:
    baseline: Metrics
    ann: Metrics
    ann_better_mean_eps_v: bool    # strictly smaller post-attack mean eps_v, or the
                                   # baseline diverged and the ANN did not
    ann_within_limits: bool        # post-attack |v_1 - v*| stays in the 2% band
    ann_smaller_ripple: bool

    def as_dict(self) -> dict:
        """The report's JSON layout: each side's ``Metrics`` fields but
        ``REPORT_OMITS``, arrays as lists, then the verdicts."""
        def side(m: Metrics) -> dict:
            return {f.name: v.tolist() if isinstance(v := getattr(m, f.name), np.ndarray) else v
                    for f in fields(m) if f.name not in REPORT_OMITS}
        return {"baseline": side(self.baseline), "ann": side(self.ann),
                "verdicts": {f.name: v for f in fields(self)
                             if isinstance(v := getattr(self, f.name), bool)}}


def compare(trace_pi: Trace, trace_ann: Trace, v_ref: float | None = None,
            w_ref: float | None = None) -> ComparisonReport:
    """Side-by-side metrics for the same scenario run with both controllers;
    a run cut at its divergence holds a prefix of the other's samples."""
    short, full = sorted((trace_pi, trace_ann), key=lambda tr: len(tr.t))
    m = len(short.t)
    if not (short.diverged or m == len(full.t)) \
            or not np.array_equal(short.data[:, [0, -1]], full.data[:m, [0, -1]]):
        raise MetricsError("traces come from different scenarios "
                           "(mismatched time base or attack schedule)")
    m_pi = compute_metrics(trace_pi, v_ref, w_ref)
    m_ann = compute_metrics(trace_ann, v_ref, w_ref)
    vr = v_ref if v_ref is not None else trace_ann.v_ref

    # an ANN that diverged wins nothing; a baseline that diverged loses to an
    # ANN that held, whatever its window saw
    held = not m_ann.diverged
    better = held and m_ann.eps_v_post_mean is not None and (
        m_pi.diverged
        or (m_pi.eps_v_post_mean is not None and m_ann.eps_v_post_mean < m_pi.eps_v_post_mean))
    within = (held and m_ann.eps_v_post_max is not None
              and m_ann.eps_v_post_max < 0.02 * vr)
    smaller_ripple = (held and m_ann.voltage_ripple is not None
                      and m_pi.voltage_ripple is not None
                      and m_ann.voltage_ripple < m_pi.voltage_ripple)
    return ComparisonReport(baseline=m_pi, ann=m_ann,
                            ann_better_mean_eps_v=better,
                            ann_within_limits=within,
                            ann_smaller_ripple=smaller_ripple)
