import numpy as np
import pytest

from mgres.graph import inbound_voltage_channels
from mgres.scenario import builtin_scenario
from mgres.simulate import run_scenario
from mgres.trace import (Trace, TraceFormatError, column_names,
                         dg1_voltage_triple, export_csv, parse_csv,
                         traces_equal)


@pytest.fixture(scope="module")
def short_trace():
    cfg = builtin_scenario("default-nonperiodic", duration=0.05)
    return run_scenario(cfg)


def test_column_layout(short_trace):
    cols = column_names(short_trace)
    assert cols[0] == "t" and cols[-1] == "attack_active"
    assert cols[1:7] == ["dg1.v", "dg1.w", "dg1.P", "dg1.Q", "dg1.Vn", "dg1.wn"]
    assert "ch.dg1->dg1.voltage.clean" in cols
    assert "ch.dg2->dg1.voltage.recv" in cols
    assert "load1.I" in cols and "load2.I" in cols
    # 1 time + 4*6 dg + 2*2*12 channels + 2 loads + 1 flag
    assert len(cols) == 1 + 24 + 48 + 2 + 1


def test_round_trip_is_byte_identical(short_trace, tmp_path):
    path = tmp_path / "trace.csv"
    export_csv(short_trace, path)
    first = path.read_bytes()
    back = parse_csv(str(path))
    export_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == first
    assert traces_equal(short_trace, back)


def test_round_trip_from_text(short_trace):
    text = export_csv(short_trace)
    back = parse_csv(text)
    assert traces_equal(short_trace, back)
    assert export_csv(back) == text


def test_parsed_values_match(short_trace):
    back = parse_csv(export_csv(short_trace))
    np.testing.assert_array_equal(back.t, short_trace.t)
    np.testing.assert_array_equal(back.dg["Vn"], short_trace.dg["Vn"])
    assert back.channels == short_trace.channels
    assert back.v_ref is None  # metadata is not carried by the CSV


def test_voltage_triple_ordering(short_trace):
    idx = inbound_voltage_channels(short_trace.channels, 0)
    assert [short_trace.channels[k] for k in idx] == [
        (0, 0, "voltage"), (1, 0, "voltage"), (3, 0, "voltage")]
    clean, recv = dg1_voltage_triple(short_trace)
    assert clean.shape == recv.shape == (len(short_trace.t), 3)
    np.testing.assert_array_equal(clean[:, 0], short_trace.dg["v"][:, 0])


def test_triple_requires_two_neighbors():
    tr = Trace(t=np.zeros(1), dg={s: np.zeros((1, 1)) for s in
                                  ("v", "w", "P", "Q", "Vn", "wn")},
               channels=[(0, 0, "voltage")], ch_clean=np.zeros((1, 1)),
               ch_recv=np.zeros((1, 1)), load_buses=[], load_current=np.zeros((1, 0)),
               attack_active=np.zeros(1, dtype=int))
    with pytest.raises(TraceFormatError, match="exactly 3"):
        dg1_voltage_triple(tr)


def test_seventeen_digit_precision(short_trace):
    # adjacent 1 ms samples differ in late digits only; the format keeps them
    text = export_csv(short_trace)
    row = text.splitlines()[3].split(",")
    assert float(row[1]) == short_trace.dg["v"][2, 0]


@pytest.mark.parametrize("text, msg", [
    ("a,b\n", "start with t"),
    ("t,dg1.v,attack_active\n1,2\n", "row width"),
    ("t,ch.bogus,attack_active\n", "bad channel column"),
    ("t,ch.dg1->dg2.voltage.clean,attack_active\n", "both a clean and a recv"),
])
def test_parse_rejects_malformed(text, msg):
    with pytest.raises(TraceFormatError, match=msg):
        parse_csv(text + "\n")


def test_traces_equal_detects_differences(short_trace):
    other = parse_csv(export_csv(short_trace))
    other.dg["v"][0, 0] += 1e-15
    assert not traces_equal(short_trace, other)


def test_export_matches_per_value_formatting():
    # the normative text: every value through format(x, ".17g"), in the
    # schema's column order, the flag as an integer
    t = np.array([0.0, 1e-300, 1e300])
    dg = {sig: np.array([[-0.0, k + 0.1], [1e-300, -1e300], [1e300, 1.0 / 3.0]]) * (k + 1)
          for k, sig in enumerate(("v", "w", "P", "Q", "Vn", "wn"))}
    channels = [(0, 0, "voltage"), (1, 0, "frequency")]
    clean = np.array([[-0.0, 2.5e-300], [1e300, 0.1], [7.0, -1e-300]])
    recv = -clean[:, ::-1]
    loads = np.array([[1e300], [-0.0], [1e-300]])
    tr = Trace(t=t, dg=dg, channels=channels, ch_clean=clean, ch_recv=recv,
               load_buses=[0], load_current=loads, attack_active=np.array([0, 1, 0]))
    lines = [",".join(column_names(tr))]
    for r in range(3):
        vals = [t[r]] + [dg[sig][r, i] for i in range(2)
                         for sig in ("v", "w", "P", "Q", "Vn", "wn")]
        vals += [x for c in range(2) for x in (clean[r, c], recv[r, c])] + [loads[r, 0]]
        lines.append(",".join(format(x, ".17g") for x in vals) + f",{tr.attack_active[r]}")
    text = export_csv(tr)
    assert text == "\n".join(lines) + "\n"
    assert "-0," in text and "1e+300" in text and "1e-300" in text
