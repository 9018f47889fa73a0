import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mgres.metrics import ComparisonReport, Metrics, MetricsError, compare, compute_metrics
from mgres.trace import Trace

W60 = 2 * math.pi * 60


def make_trace(t, v1, attack_from=None, v_others=1.0, w=W60):
    tr = Trace.empty(len(t), 4, [], 0)
    tr.t[:] = t
    tr.dg["v"][:] = v_others
    tr.dg["v"][:, 0] = v1
    tr.dg["w"][:] = w
    if attack_from is not None:
        tr.attack_active[t >= attack_from] = 1
    tr.v_ref, tr.w_ref = 1.0, W60
    return tr


def test_no_attack_metrics():
    t = np.arange(0, 2.001, 1e-3)
    tr = make_trace(t, v1=1.004)
    m = compute_metrics(tr)
    assert m.attack_start is None
    assert m.eps_v_post_mean is None and m.voltage_ripple is None
    assert m.settling_time is None
    np.testing.assert_allclose(m.eps_v, 0.004)
    assert m.steady_voltage_error_pct[0] == pytest.approx(0.4)
    assert m.steady_voltage_error_pct[1] == pytest.approx(0.0)
    np.testing.assert_allclose(m.steady_frequency_error_hz, 0.0, atol=1e-12)


def test_post_attack_window_excludes_guard():
    t = np.arange(0, 4.001, 1e-3)
    v1 = np.ones_like(t)
    v1[(t >= 2.0) & (t < 2.5)] = 0.8   # mitigation transient
    v1[t >= 2.5] = 1.01                # post-guard plateau
    m = compute_metrics(make_trace(t, v1, attack_from=2.0))
    assert m.attack_start == pytest.approx(2.0)
    assert m.eps_v_post_mean == pytest.approx(0.01)
    assert m.eps_v_post_max == pytest.approx(0.01)


def test_ripple_is_half_peak_to_peak():
    t = np.arange(0, 4.001, 1e-3)
    v1 = np.ones_like(t)
    post = t >= 2.5
    v1[post] = 1.0 + 0.03 * np.sin(2 * np.pi * 60 * t[post])
    m = compute_metrics(make_trace(t, v1, attack_from=2.0))
    assert m.voltage_ripple == pytest.approx(0.03, rel=1e-2)


def test_settling_time():
    t = np.arange(0, 4.001, 1e-3)
    v1 = np.ones_like(t)
    v1[(t >= 2.0) & (t < 2.3)] = 0.9   # outside the 2% band for 0.3 s
    m = compute_metrics(make_trace(t, v1, attack_from=2.0))
    assert m.settling_time == pytest.approx(0.3, abs=2e-3)
    never = make_trace(t, np.where(t >= 2.0, 0.9, 1.0), attack_from=2.0)
    assert compute_metrics(never).settling_time is None


def test_frequency_error_in_hz():
    t = np.arange(0, 1.001, 1e-3)
    tr = make_trace(t, v1=1.0, w=W60 + 2 * math.pi * 0.05)
    m = compute_metrics(tr)
    np.testing.assert_allclose(m.steady_frequency_error_hz, 0.05, rtol=1e-9)


def test_metric_input_validation():
    t = np.arange(0, 0.201, 1e-3)
    tr = make_trace(t, v1=1.0)
    with pytest.raises(MetricsError, match="steady window"):
        compute_metrics(tr)  # default 0.5 s window > 0.2 s trace
    tr2 = make_trace(t, v1=1.0)
    tr2.v_ref = None
    with pytest.raises(MetricsError, match="references"):
        compute_metrics(tr2)
    with pytest.raises(MetricsError, match="empty"):
        compute_metrics(make_trace(np.zeros(0), v1=np.zeros(0)))


def test_a_run_that_diverged_inside_the_steady_window_takes_its_whole_span():
    t = np.arange(0, 0.493, 1e-3)
    tr = make_trace(t, np.where(t >= 0.3, 1.05, 1.0), attack_from=0.0)
    tr.diverged_time = 0.4921
    m = compute_metrics(tr)
    assert m.diverged and m.eps_v_post_mean is None and m.settling_time is None
    assert m.steady_voltage_error_pct[0] == pytest.approx(100 * 0.05 * (t >= 0.3).mean())
    assert m.steady_voltage_error_pct[1:].max() == 0.0
    tr.diverged_time = None   # the same short trace from a run that ended there
    with pytest.raises(MetricsError, match="steady window"):
        compute_metrics(tr)


def test_compare_verdict_on_a_diverged_baseline():
    # PI diverged before its post-attack window: the ANN that held is better
    t = np.arange(0, 1.001, 1e-3)
    ann = make_trace(t, np.where(t > 0, 1.003, 1.0), attack_from=0.0)
    cut = t < 0.492
    pi = make_trace(t[cut], np.where(t[cut] > 0, 0.8, 1.0), attack_from=0.0)
    pi.diverged_time = 0.4921
    rep = compare(pi, ann)
    assert rep.baseline.eps_v_post_mean is None and rep.ann.eps_v_post_mean is not None
    assert rep.ann_better_mean_eps_v
    # both diverged: no verdict for the ANN, as before
    ann_cut = make_trace(t[:700], np.where(t[:700] > 0, 1.003, 1.0), attack_from=0.0)
    ann_cut.diverged_time = 0.7
    assert not compare(pi, ann_cut).ann_better_mean_eps_v
    # an ANN with no post-attack window gets none either
    no_window = make_trace(t, np.ones_like(t))
    pi_quiet = make_trace(t[cut], np.ones(cut.sum()))
    pi_quiet.diverged_time = 0.4921
    assert not compare(pi_quiet, no_window).ann_better_mean_eps_v


def test_an_ann_that_diverged_wins_no_verdict():
    # an ANN cut at 2.8 s, in band until then, against a PI run that held
    # at a rippling 0.7 pu: the ANN's short window once won all three
    t = np.arange(0, 4.001, 1e-3)
    pi = make_trace(t, np.where(t >= 2.0, 0.7 + 0.01 * np.sin(2 * np.pi * 60 * t), 1.0),
                    attack_from=2.0)
    cut = t < 2.8
    ann = make_trace(t[cut], np.where(t[cut] >= 2.0, 1.002, 1.0), attack_from=2.0)
    ann.diverged_time = 2.8
    rep = compare(pi, ann)
    assert rep.ann.eps_v_post_mean == pytest.approx(0.002) and rep.ann.voltage_ripple == 0.0
    assert not (rep.ann_better_mean_eps_v or rep.ann_within_limits or rep.ann_smaller_ripple)
    # the same ANN run held to the end wins all three
    rep = compare(pi, make_trace(t, np.where(t >= 2.0, 1.002, 1.0), attack_from=2.0))
    assert rep.ann_better_mean_eps_v and rep.ann_within_limits and rep.ann_smaller_ripple


def test_compare_verdicts():
    t = np.arange(0, 4.001, 1e-3)
    v_pi = np.where(t >= 2.0, 0.7, 1.0)           # big sag under attack
    v_ann = np.where(t >= 2.0, 1.002, 1.0)        # held in band
    rep = compare(make_trace(t, v_pi, attack_from=2.0),
                  make_trace(t, v_ann, attack_from=2.0))
    assert rep.ann_better_mean_eps_v
    assert rep.ann_within_limits
    d = rep.as_dict()
    assert d["verdicts"]["ann_better_mean_eps_v"] is True
    assert d["baseline"]["eps_v_post_mean"] == pytest.approx(0.3)


def test_compare_rejects_mismatched_runs():
    t = np.arange(0, 4.001, 1e-3)
    a = make_trace(t, np.ones_like(t), attack_from=2.0)
    b = make_trace(t, np.ones_like(t), attack_from=3.0)
    with pytest.raises(MetricsError, match="different scenarios"):
        compare(a, b)
    c = make_trace(t[:-1], np.ones(len(t) - 1), attack_from=2.0)
    with pytest.raises(MetricsError, match="different scenarios"):
        compare(a, c)


def test_compare_accepts_a_run_cut_at_its_divergence():
    t = np.arange(0, 4.001, 1e-3)
    ann = make_trace(t, np.where(t >= 2.0, 1.002, 1.0), attack_from=2.0)
    cut = t < 2.42
    pi = make_trace(t[cut], np.where(t[cut] >= 2.0, 0.7, 1.0), attack_from=2.0)
    pi.diverged_time = 2.42
    rep = compare(pi, ann)
    d = rep.as_dict()
    assert (d["baseline"]["diverged"], d["baseline"]["diverged_time"]) == (True, 2.42)
    assert (d["ann"]["diverged"], d["ann"]["diverged_time"]) == (False, None)
    assert d["baseline"]["eps_v_post_mean"] is None   # cut before the post-attack window
    assert rep.ann_within_limits and rep.ann_better_mean_eps_v   # the ANN held, PI did not
    assert compare(ann, pi).as_dict()["ann"]["diverged_time"] == 2.42
    # the cut run's own samples must still match the other's
    pi.attack_active[-1] = 0
    with pytest.raises(MetricsError, match="different scenarios"):
        compare(pi, ann)
    pi.attack_active[-1] = 1
    pi.t[-1] += 1e-3
    with pytest.raises(MetricsError, match="different scenarios"):
        compare(pi, ann)


def test_report_layout_is_metrics_fields_then_verdicts():
    t = np.arange(0, 4.001, 1e-3)
    v_ann = np.where(t >= 2.0, np.where(np.arange(len(t)) % 2, 1.002, 0.998), 1.0)
    v_ann[(t >= 2.0) & (t < 2.1)] = 0.97          # settles 0.1 s after the onset
    ann = make_trace(t, v_ann, attack_from=2.0, w=W60 + 2 * np.pi * 0.05)
    cut = t < 2.42
    pi = make_trace(t[cut], np.where(t[cut] >= 2.0, 0.7, 1.0), attack_from=2.0)
    pi.diverged_time = 2.42
    d = compare(pi, ann).as_dict()
    side = [f.name for f in fields(Metrics) if f.name not in ("eps_v", "attack_start")]
    assert list(d) == ["baseline", "ann", "verdicts"]
    assert list(d["baseline"]) == list(d["ann"]) == side
    assert list(d["verdicts"]) == [f.name for f in fields(ComparisonReport)][2:]
    # deriving the layout moves no byte of the report
    assert json.dumps(d, indent=2) + "\n" == (Path(__file__).parent / "fixtures"
                                              / "compare_report.json").read_text()
