import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgres.attack import (AttackConfigError, AttackSpec, NonPeriodic, Periodic,
                          parse_target, resolve_channels)
from mgres.scenario import builtin_scenario
from mgres.simulate import run_scenario


def spec(kind, tau=2.0, src=0, dst=1, signal="voltage", end=None):
    return AttackSpec(src=src, dst=dst, signal=signal, kind=kind, tau=tau, end=end)


def test_identity_before_tau():
    s = spec(NonPeriodic(alpha=0.5))
    assert s.gain(0.0) == 1.0 and 1.02 * s.gain(0.0) == 1.02
    assert s.gain(1.999) == 1.0


def test_nonperiodic_after_tau():
    s = spec(NonPeriodic(alpha=0.5))
    # h(u) = u + 0.5 u exactly at and after onset
    assert 1.0 * s.gain(2.0) == pytest.approx(1.5, abs=1e-15)
    assert 0.98 * s.gain(3.7) == pytest.approx(1.47, abs=1e-15)


def test_periodic_phase_referenced_to_time_zero():
    s = spec(Periodic(beta=0.5, omega=2 * math.pi * 60.0))
    # quarter period past t=2s: sin(2 pi 60 (2 + 1/240)) = sin(pi/2) = 1
    t = 2.0 + 1.0 / 240.0
    assert s.gain(t) == pytest.approx(1.5, rel=1e-9)
    # at onset the sinusoid continues the t=0 phase, sin(240 pi) = 0
    assert s.gain(2.0) == pytest.approx(1.0, abs=1e-9)


def test_attack_window_end():
    s = spec(NonPeriodic(alpha=1.0), tau=1.0, end=2.0)
    assert s.gain(0.5) == 1.0
    assert s.gain(1.5) == 2.0
    assert s.gain(2.0) == 1.0  # half-open [tau, end)


def test_stacked_attacks_compose_in_declaration_order():
    a = spec(NonPeriodic(alpha=0.5), tau=0.0)
    b = spec(NonPeriodic(alpha=0.5), tau=0.0)
    tr = run_scenario(replace(builtin_scenario("default", duration=0.01),
                              attacks=(a, b)))
    k = tr.channels.index((0, 1, "voltage"))
    clean, recv = tr.ch_clean[:, k], tr.ch_recv[:, k]
    np.testing.assert_allclose(recv, 2.25 * clean, rtol=1e-15)
    np.testing.assert_array_equal(recv, clean * a.gain(0.0) * b.gain(0.0))
    others = [c for c in range(len(tr.channels)) if c != k]
    np.testing.assert_array_equal(tr.ch_recv[:, others], tr.ch_clean[:, others])


def test_attack_window_on_a_run_with_stacked_overlapping_attacks():
    # DG1's inbound voltages under a constant gain on [10, 30) ms and DG2's
    # outgoing voltages under a sinusoid on [15, 35) ms: both scale DG2 -> DG1
    a = spec(NonPeriodic(alpha=0.3), tau=0.01, end=0.03, src="broadcast", dst=0)
    b = spec(Periodic(beta=0.2, omega=2 * math.pi * 60.0), tau=0.015, end=0.035,
             src=1, dst="broadcast")
    tr = run_scenario(replace(builtin_scenario("default", duration=0.05), attacks=(a, b)))
    both = set(resolve_channels(a, tr.channels)) & set(resolve_channels(b, tr.channels))
    assert both == {tr.channels.index((1, 0, "voltage"))}
    outside = (tr.t < 0.01) | (tr.t >= 0.035)
    assert outside.sum() == 26 and not tr.attack_active[outside].any()
    assert tr.attack_active[~outside].all()
    assert tr.ch_recv[outside].tobytes() == tr.ch_clean[outside].tobytes()
    for t, clean, recv in zip(tr.t[~outside], tr.ch_clean[~outside], tr.ch_recv[~outside]):
        want = clean.copy()
        for s in (a, b):
            k = resolve_channels(s, tr.channels)
            want[k] = want[k] * s.gain(t)
        assert recv.tobytes() == want.tobytes()
    k = sorted(both)
    inside = ~outside & (tr.t >= 0.015) & (tr.t < 0.03)
    assert (tr.ch_recv[inside][:, k] != tr.ch_clean[inside][:, k]).all()


def test_matching_is_channel_precise():
    s = spec(NonPeriodic(alpha=0.5), src=0, dst=1, signal="voltage")
    assert s.matches(0, 1, "voltage")
    assert not s.matches(0, 1, "frequency")
    assert not s.matches(1, 0, "voltage")
    assert not s.matches(0, 2, "voltage")


def test_broadcast_matching():
    out = spec(NonPeriodic(0.5), src=0, dst="broadcast")
    assert out.matches(0, 0, "voltage") and out.matches(0, 3, "voltage")
    assert not out.matches(1, 0, "voltage")
    inb = spec(NonPeriodic(0.5), src="broadcast", dst=0)
    assert inb.matches(0, 0, "voltage") and inb.matches(3, 0, "voltage")
    assert not inb.matches(0, 1, "voltage")


def test_invalid_specs():
    with pytest.raises(AttackConfigError, match="signal"):
        spec(NonPeriodic(0.5), signal="power")
    with pytest.raises(AttackConfigError, match="tau"):
        spec(NonPeriodic(0.5), tau=-1.0)
    with pytest.raises(AttackConfigError, match="end"):
        spec(NonPeriodic(0.5), tau=2.0, end=1.0)
    with pytest.raises(AttackConfigError, match="broadcast"):
        spec(NonPeriodic(0.5), src="broadcast", dst="broadcast")
    for tau in (math.nan, math.inf):
        with pytest.raises(AttackConfigError, match="tau must be finite"):
            spec(NonPeriodic(0.5), tau=tau)
    for end in (math.nan, math.inf):
        with pytest.raises(AttackConfigError, match="end .* must be finite"):
            spec(NonPeriodic(0.5), tau=2.0, end=end)
    with pytest.raises(AttackConfigError, match="alpha must be finite"):
        NonPeriodic(math.nan)
    with pytest.raises(AttackConfigError, match="beta must be finite"):
        Periodic(-math.inf, 377.0)
    with pytest.raises(AttackConfigError, match="omega must be finite"):
        Periodic(0.5, math.nan)


@pytest.mark.parametrize("target, expect", [
    ("dg1.voltage -> dg2", (0, 1, "voltage")),
    ("dg3.frequency -> dg4", (2, 3, "frequency")),
    ("dg1.voltage -> broadcast", (0, "broadcast", "voltage")),
    ("broadcast -> dg1.voltage", ("broadcast", 0, "voltage")),
    ("  dg2.voltage->dg1  ", (1, 0, "voltage")),
])
def test_parse_target(target, expect):
    assert parse_target(target) == expect


@pytest.mark.parametrize("target", [
    "dg1 -> dg2", "dg1.voltage - dg2", "broadcast -> broadcast",
    "dg1.power -> dg2", "broadcast -> dg1", "dg1.voltage -> dg2.frequency",
])
def test_parse_target_rejects(target):
    with pytest.raises(AttackConfigError):
        parse_target(target)


def test_resolve_channels():
    chans = [(0, 0, "voltage"), (1, 0, "voltage"), (3, 0, "voltage"),
             (0, 0, "frequency"), (0, 1, "voltage")]
    inb = spec(NonPeriodic(0.5), src="broadcast", dst=0)
    assert resolve_channels(inb, chans) == [0, 1, 2]
    single = spec(NonPeriodic(0.5), src=1, dst=0)
    assert resolve_channels(single, chans) == [1]
    with pytest.raises(AttackConfigError, match="attack dg3.voltage -> dg4 matches no channel"):
        resolve_channels(spec(NonPeriodic(0.5), src=2, dst=3), chans)
    with pytest.raises(AttackConfigError, match="attack broadcast -> dg4.voltage matches no"):
        resolve_channels(spec(NonPeriodic(0.5), src="broadcast", dst=3), chans)


@given(st.floats(0, 10), st.floats(-2, 2), st.floats(-0.9, 0.9))
def test_homogeneity(t, u, alpha):
    # h(u) = gain(t) * u does not depend on u, so h(2u) = 2 h(u)
    s = spec(NonPeriodic(alpha=alpha), tau=1.0)
    assert (2.0 * u) * s.gain(t) == pytest.approx(2.0 * (u * s.gain(t)),
                                                  rel=1e-12, abs=1e-12)
    assert s.gain(t) == (1.0 + alpha if t >= 1.0 else 1.0)


@given(st.floats(0, 10), st.floats(0, 1), st.floats(1, 500))
def test_periodic_gain_is_bounded(t, beta, f):
    s = spec(Periodic(beta=beta, omega=2 * math.pi * f), tau=0.0)
    assert 1.0 - beta - 1e-12 <= s.gain(t) <= 1.0 + beta + 1e-12
