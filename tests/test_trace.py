import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgres.ann import feature_channels
from mgres.datagen import MatrixSpec, gen_data
from mgres.graph import ring_graph
from mgres.scenario import builtin_scenario
from mgres.simulate import run_scenario
from mgres.trace import Trace, TraceFormatError, column_names, export_csv, parse_csv
from reference import csv_text, parse_text, traces_equal


@pytest.fixture(scope="module")
def short_trace():
    cfg = builtin_scenario("default-nonperiodic", duration=0.05)
    return run_scenario(cfg)


def test_column_layout(short_trace):
    cols = column_names(short_trace)
    assert cols[0] == "t" and cols[-1] == "attack_active"
    assert cols[1:7] == ["dg1.v", "dg1.w", "dg1.P", "dg1.Q", "dg1.Vn", "dg1.wn"]
    assert not any(c.endswith(".clean") for c in cols)
    assert "ch.dg2->dg1.voltage.recv" in cols
    assert "load1.I" in cols and "load2.I" in cols
    # 1 time + 4*6 dg + 2*12 channels + 2 loads + 1 flag
    assert len(cols) == 1 + 24 + 24 + 2 + 1


def test_clean_channels_are_the_source_dg_columns(short_trace):
    clean = short_trace.ch_clean
    for k, (s, d, sig) in enumerate(short_trace.channels):
        col = short_trace.dg["v" if sig == "voltage" else "w"][:, s]
        assert clean[:, k].tobytes() == col.tobytes()
    # a copy: a write would change nothing, so it raises
    with pytest.raises(ValueError, match="read-only"):
        short_trace.ch_clean[0, 0] = 2.0


def test_round_trip_is_byte_identical(short_trace, tmp_path):
    path = tmp_path / "trace.csv"
    export_csv(short_trace, path)
    first = path.read_bytes()
    back = parse_csv(str(path))
    export_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == first
    assert traces_equal(short_trace, back)


def test_round_trip_from_text(short_trace, tmp_path):
    text = csv_text(short_trace, tmp_path / "trace.csv")
    back = parse_text(text, tmp_path / "text.csv")
    assert traces_equal(short_trace, back)
    assert csv_text(back, tmp_path / "again.csv") == text


def test_parsed_values_match(short_trace, tmp_path):
    path = tmp_path / "trace.csv"
    export_csv(short_trace, path)
    back = parse_csv(path)
    np.testing.assert_array_equal(back.t, short_trace.t)
    np.testing.assert_array_equal(back.dg["Vn"], short_trace.dg["Vn"])
    assert back.channels == short_trace.channels
    assert back.v_ref is None  # metadata is not carried by the CSV


def test_voltage_triple_ordering(short_trace):
    idx = feature_channels(short_trace.channels, 0)
    assert [short_trace.channels[k] for k in idx] == [
        (0, 0, "voltage"), (1, 0, "voltage"), (3, 0, "voltage")]
    clean, recv = short_trace.ch_clean[:, idx], short_trace.ch_recv[:, idx]
    assert clean.shape == recv.shape == (len(short_trace.t), 3)
    np.testing.assert_array_equal(clean[:, 0], short_trace.dg["v"][:, 0])
    chans = ring_graph(4).channels()
    assert feature_channels(chans, 0) == [0, 8, 10]
    assert [chans[k] for k in feature_channels(chans, 2)] == [
        (2, 2, "voltage"), (1, 2, "voltage"), (3, 2, "voltage")]


def test_triple_requires_two_neighbors():
    tr = Trace.empty(1, 1, [(0, 0, "voltage")], 0)
    with pytest.raises(ValueError, match="DG1 needs exactly 3"):
        feature_channels(tr.channels, 0)


def test_seventeen_digit_precision(short_trace, tmp_path):
    # adjacent 1 ms samples differ in late digits only; the format keeps them
    text = csv_text(short_trace, tmp_path / "trace.csv")
    row = text.splitlines()[3].split(",")
    assert float(row[1]) == short_trace.dg["v"][2, 0]


TWO_DG_HEADER = column_names(Trace.empty(0, 2, [], 0))


@pytest.mark.parametrize("text, msg", [
    ("a,b\n", "start with t"),
    # the header alone is judged first: its fault comes before the short row's
    ("t,dg1.v,attack_active\n1,2\n", "bad DG column 'dg1.v' at position 2, expected 'load1.I'"),
    ("t,ch.bogus,attack_active\n", "bad channel column"),
    # a channel carries a DG's voltage or frequency, nothing else
    ("t,ch.dg1->dg2.power.recv,attack_active\n",
     "bad channel column 'ch.dg1->dg2.power.recv' at position 2, expected 'load1.I'"),
    ("t,ch.dg1->dg2.voltage.clean,attack_active\n",
     "bad channel column 'ch.dg1->dg2.voltage.clean' at position 2, expected 'load1.I'"),
    # the clean column of a CSV written before channels were recorded once
    ("t,ch.dg1->dg2.voltage.clean,ch.dg1->dg2.voltage.recv,attack_active\n",
     "bad channel column 'ch.dg1->dg2.voltage.clean' at position 2, "
     "expected 'ch.dg1->dg2.voltage.recv'"),
    # an IndexError, a KeyError, and w ... wn left as np.empty values before the check
    ("t,dg1.v,attack_active\n", "bad DG column 'dg1.v' at position 2, expected 'load1.I'"),
    ("t," + ",".join(f"dg1.{s}" for s in ("v", "w", "P", "Q", "Vn", "foo")) + ",attack_active\n",
     "bad DG column 'dg1.foo' at position 7, expected 'dg1.wn'"),
    ("t," + "dg1.v," * 6 + "attack_active\n",
     "bad DG column 'dg1.v' at position 3, expected 'dg1.w'"),
    # parsed as 0, as -9223372036854775808 with a RuntimeWarning, and as 2
    ("t,attack_active\n0,0.5\n", "trace.csv: line 2: attack_active must be 0 or 1, got 0.5"),
    ("t,attack_active\n0,nan\n", "trace.csv: line 2: attack_active must be 0 or 1, got nan"),
    ("t,attack_active\n0,0\n\n0.001,2\n", "trace.csv: line 4: attack_active must be 0 or 1, got 2"),
    # a channel joins two of the trace's DGs: ch_clean read a source DG0 as the
    # last DG and raised IndexError on one past the last DG
    (",".join(TWO_DG_HEADER[:-1] + ["ch.dg0->dg1.voltage.recv", "attack_active"]),
     "trace.csv: bad channel column 'ch.dg0->dg1.voltage.recv' at position 14: "
     "the trace has no DG0"),
    (",".join(TWO_DG_HEADER[:-1] + ["ch.dg3->dg1.voltage.recv", "attack_active"]),
     "the trace has no DG3"),
    (",".join(TWO_DG_HEADER[:-1] + ["ch.dg1->dg2.voltage.recv", "ch.dg2->dg3.frequency.recv",
                                    "attack_active"]),
     "bad channel column 'ch.dg2->dg3.frequency.recv' at position 15: the trace has no DG3"),
    # int() refuses more than 4 300 digits, with a ValueError that named no file or column
    pytest.param("t,ch.dg" + "1" * 5000 + "->dg1.voltage.recv,attack_active\n0,1,0\n",
                 r"trace.csv: bad channel column 'ch.dg1+->dg1.voltage.recv' at position 2, "
                 "expected 'load1.I'", id="dg-number-too-long"),
])
def test_parse_rejects_malformed(text, msg, tmp_path):
    with pytest.raises(TraceFormatError, match=msg):
        parse_text(text + "\n", tmp_path / "trace.csv")


def test_a_head_under_another_header_lends_no_rows(tmp_path):
    # its rows were checked against its own header's width, not this file's
    wide, narrow = (",".join(column_names(Trace.empty(0, 1, [], n))) for n in (1, 0))
    rows = "0,1,377,0,0,1,377,0.5,0\n"
    (tmp_path / "head.csv").write_text(wide + "\n" + rows)
    head = (tmp_path / "head.csv", parse_csv(tmp_path / "head.csv"))
    with pytest.raises(TraceFormatError, match="line 2: row width 9 does not match the header's 8"):
        parse_text(narrow + "\n" + rows, tmp_path / "narrow.csv", head=head)


def test_a_bad_header_is_rejected_before_the_rows_are_read(short_trace, monkeypatch, tmp_path):
    # a renamed column once cost a parse of every row before the header check
    def read_rows(*args, **kwargs):
        raise AssertionError("np.loadtxt read the rows")

    path = tmp_path / "trace.csv"
    path.write_text(csv_text(short_trace, path).replace("dg2.Q", "dg2.q", 1))
    monkeypatch.setattr("mgres.trace.np.loadtxt", read_rows)
    with pytest.raises(TraceFormatError, match="bad DG column 'dg2.q' at position 11, expected 'dg2.Q'"):
        parse_csv(path)


def test_the_attack_flag_is_the_blocks_last_column(short_trace, tmp_path):
    # a trace is its CSV block, wherever it comes from: one array holds the flag
    export_csv(short_trace, tmp_path / "trace.csv")
    for tr in (Trace.empty(3, 2, [(0, 1, "voltage")], 1), short_trace,
               parse_csv(tmp_path / "trace.csv")):
        assert np.shares_memory(tr.attack_active, tr.data)


def test_a_cut_block_keeps_its_flag_rows(tmp_path):
    cfg = builtin_scenario("default-nonperiodic", duration=0.05)
    tr = run_scenario(replace(cfg, attacks=tuple(replace(a, tau=0.02) for a in cfg.attacks)))
    assert tr.attack_active.any() and not tr.attack_active.all()
    for k in (0, 20, 21, len(tr.t)):
        tail = replace(tr, data=tr.data[k:])
        assert tail.attack_active.tobytes() == tr.attack_active[k:].tobytes()
        assert csv_text(tail, tmp_path / "tail.csv").splitlines()[1:] \
            == csv_text(tr, tmp_path / "trace.csv").splitlines()[1 + k:]


def test_diverged_follows_diverged_time():
    tr = Trace.empty(2, 1, [], 0)
    assert not tr.diverged
    tr.diverged_time = 0.0   # a run that diverged on its first step
    assert tr.diverged and not replace(tr, diverged_time=None).diverged
    with pytest.raises(AttributeError):
        tr.diverged = False


def test_traces_equal_detects_differences(short_trace, tmp_path):
    export_csv(short_trace, tmp_path / "trace.csv")
    other = parse_csv(tmp_path / "trace.csv")
    other.dg["v"][0, 0] += 1e-15
    assert not traces_equal(short_trace, other)


def extreme_trace() -> Trace:
    """Two DGs and two channels with signed zeros and values near the float
    range's ends."""
    tr = Trace.empty(3, 2, [(0, 0, "voltage"), (1, 0, "frequency")], 1)
    tr.t[:] = [0.0, 1e-300, 1e300]
    for k, sig in enumerate(("v", "w", "P", "Q", "Vn", "wn")):
        tr.dg[sig][:] = np.array([[-0.0, k + 0.1], [1e-300, -1e300], [1e300, 1.0 / 3.0]]) * (k + 1)
    tr.ch_recv[:] = [[-2.5e-300, 0.0], [-0.1, -1e300], [1e-300, -7.0]]
    tr.load_current[:] = [[1e300], [-0.0], [1e-300]]
    tr.attack_active[:] = [0, 1, 0]
    return tr


def per_value_csv(tr: Trace) -> str:
    """The normative text: every value through format(x, ".17g"), in the
    schema's column order, the flag as an integer."""
    lines = [",".join(column_names(tr))]
    for r in range(len(tr.t)):
        vals = [tr.t[r]] + [tr.dg[sig][r, i] for i in range(tr.n_dg)
                            for sig in ("v", "w", "P", "Q", "Vn", "wn")]
        vals += list(tr.ch_recv[r])
        vals += list(tr.load_current[r])
        lines.append(",".join(format(x, ".17g") for x in vals) + f",{int(tr.attack_active[r])}")
    return "\n".join(lines) + "\n"


def test_export_matches_per_value_formatting(tmp_path):
    tr = extreme_trace()
    text = csv_text(tr, tmp_path / "trace.csv")
    assert text == per_value_csv(tr)
    assert "-0," in text and "1e+300" in text and "1e-300" in text


# signed zeros, infinities, NaN, the smallest subnormal and normal, the largest
# float, values with no short decimal, and the 60 Hz angular frequency
EDGE_VALUES = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, 0.1, 1 / 3, 1.0, 376.99111843077515])


def test_percent_format_is_format_17g(tmp_path):
    # export_csv formats a row with one "%.17g" call; the schema says format(x, ".17g")
    for v in EDGE_VALUES.tolist():
        assert "%.17g" % v == format(v, ".17g"), v
    tr = Trace.empty(len(EDGE_VALUES), 2, [(0, 1, "voltage"), (1, 0, "frequency")], 1)
    tr.t[:] = np.arange(len(EDGE_VALUES)) * 1e-4
    # a NaN's sign is not written ("nan" either way), so no value is negated
    for k, sig in enumerate(("v", "w", "P", "Q", "Vn", "wn")):
        tr.dg[sig][:] = np.column_stack([np.roll(EDGE_VALUES, k), np.roll(EDGE_VALUES, -k - 1)])
    tr.ch_recv[:] = np.column_stack([EDGE_VALUES[::-1], np.roll(EDGE_VALUES, 6)])
    text = csv_text(tr, tmp_path / "trace.csv")
    assert text == per_value_csv(tr)
    assert parse_csv(tmp_path / "trace.csv").data.tobytes() == tr.data.tobytes()


def test_export_continues_a_head_of_rows(short_trace, tmp_path):
    text = csv_text(short_trace, tmp_path / "trace.csv")
    lines = text.splitlines(keepends=True)
    tail = replace(short_trace, data=short_trace.data[5:])
    assert csv_text(tail, tmp_path / "resumed.csv", head="".join(lines[:6])) == text
    # the head's first line must be the trace's header
    for head in ("".join(lines[1:6]), text.replace("dg1.v,", "dg1.V,", 1),
                 text.replace("attack_active", "attack_active,x", 1)):
        with pytest.raises(ValueError, match="first line is not the trace's header"):
            export_csv(tail, tmp_path / "bad.csv", head=head)
        assert not (tmp_path / "bad.csv").exists()


def uniform_trace(values: np.ndarray) -> Trace:
    """One DG, two channels and one load, every column set to ``values``."""
    tr = Trace.empty(len(values), 1, [(0, 0, "voltage"), (0, 0, "frequency")], 1)
    tr.data[:] = values[:, None]
    tr.attack_active[:] = np.arange(len(values)) % 2
    return tr


def test_export_keeps_columns_that_differ_only_in_bits(tmp_path):
    # column pairs equal as values (or both NaN) but not as bits are each
    # formatted from their own bits; columns equal as bits share one text
    quiet = np.array([np.nan, 1.0, -0.0, np.inf, -np.inf])
    payload = quiet.copy()
    payload.view(np.uint64)[0] |= 1              # another NaN payload
    signed = quiet.copy()
    signed[2] = 0.0                              # +0 against -0
    tr = uniform_trace(quiet)
    tr.dg["w"][:, 0] = payload
    tr.ch_recv[:, 1] = signed
    tr.load_current[:, 0] = payload
    text = csv_text(tr, tmp_path / "trace.csv")
    assert text == per_value_csv(tr)
    assert "nan,nan" in text and ",-0," in text and ",0," in text and "-inf" in text
    back = parse_csv(tmp_path / "trace.csv")
    assert csv_text(back, tmp_path / "again.csv") == text


@pytest.mark.parametrize("values", [np.array([0.25, -1e-300, 3.0]), np.zeros(0)])
def test_export_with_every_column_equal(values, tmp_path):
    tr = uniform_trace(values)
    text = csv_text(tr, tmp_path / "trace.csv")
    assert text == per_value_csv(tr)
    assert traces_equal(parse_csv(tmp_path / "trace.csv"), tr)


def reference_rows(text: str) -> np.ndarray:
    """The data rows of a CSV through float() on each token."""
    return np.array([[float(v) for v in ln.split(",")] for ln in text.splitlines()[1:] if ln])


def csv_order(tr: Trace) -> np.ndarray:
    """A parsed trace's columns back in the CSV's order, the flag as a float."""
    cols = [tr.t] + [tr.dg[sig][:, i] for i in range(tr.n_dg)
                     for sig in ("v", "w", "P", "Q", "Vn", "wn")]
    cols += list(tr.ch_recv.T) + list(tr.load_current.T) + [tr.attack_active.astype(float)]
    return np.column_stack(cols)


@pytest.fixture(scope="module")
def matrix_csvs(tmp_path_factory):
    out = tmp_path_factory.mktemp("matrix")
    spec = MatrixSpec(load_factors=(0.85, 1.15), alphas=(0.5,), betas=(0.5,),
                      tau=0.2, step_time=0.1, duration=0.3)
    entries = gen_data(str(out), spec)
    assert all(e["status"] == "ok" for e in entries)
    return sorted(out.glob("*.csv"))


def test_parse_is_bit_equal_to_float_on_each_token(matrix_csvs, tmp_path):
    assert len(matrix_csvs) == 6
    extreme = tmp_path / "extreme.csv"
    export_csv(extreme_trace(), extreme)
    for path in matrix_csvs + [extreme]:
        text = path.read_text()
        ref = reference_rows(text)
        for source in (str(path), path):
            assert csv_order(parse_csv(source)).tobytes() == ref.tobytes(), path.name
        assert csv_text(parse_csv(str(path)), tmp_path / "again.csv") == text


def test_header_only_file_is_a_zero_row_trace(short_trace, tmp_path):
    header = csv_text(short_trace, tmp_path / "trace.csv").splitlines(keepends=True)[0]
    path = tmp_path / "empty.csv"
    path.write_text(header)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for back in (parse_csv(str(path)), parse_text(header + "\n", tmp_path / "blank.csv")):
            assert len(back.t) == 0 and back.channels == short_trace.channels
            assert back.dg["v"].shape == (0, 4) and back.ch_recv.shape == (0, 24)
            assert back.load_current.shape == (0, 2)
            assert csv_text(back, tmp_path / "again.csv") == header


WIDTH = "does not match the header's 52"


@pytest.mark.parametrize("edit, message", [
    (lambda row: row.replace(",", ",x1,", 1), "line 4: could not convert string 'x1'"),
    (lambda row: row.rsplit(",", 1)[0] + "\n", f"line 4: row width 51 {WIDTH}"),    # short
    (lambda row: row.rstrip("\n") + ",0\n", f"line 4: row width 53 {WIDTH}"),      # long
    (lambda row: row.rsplit(",", 1)[0] + ",0.5\n", "line 4: attack_active must be 0 or 1"),
])
def test_malformed_row_names_the_file_and_line(short_trace, tmp_path, edit, message):
    lines = csv_text(short_trace, tmp_path / "trace.csv").splitlines(keepends=True)
    lines[3] = edit(lines[3])
    path = tmp_path / "bad.csv"
    path.write_text("".join(lines))
    # named alike whether the path is a str or a Path
    for source in (str(path), path):
        with pytest.raises(TraceFormatError) as exc:
            parse_csv(source)
        assert str(exc.value).startswith(f"{path}: {message}")


LAYOUT = column_names(Trace.empty(0, 2, [(0, 1, "voltage"), (1, 0, "frequency")], 2))
# valid names out of place, and names no layout has
NAMES = LAYOUT + ["dg1.foo", "dg3.v", "dg01.v", "ch.bogus", "ch.dg1->dg2.voltage",
                  "ch.dg1->dg2.power.clean", "ch.dg1->dg2.power.recv", "load", "load3.I",
                  "x", ""]


@st.composite
def mixed_headers(draw):
    """A trace header with up to three names replaced, inserted or dropped, and
    whether it is still the header it started as."""
    n_dg = draw(st.integers(0, 2))
    # a channel joins two DGs of the layout
    channels = draw(st.lists(st.sampled_from([(0, 1, "voltage"), (1, 0, "frequency")]),
                             max_size=2)) if n_dg == 2 else []
    start = column_names(Trace.empty(0, n_dg, channels, draw(st.integers(0, 2))))
    header = list(start)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(header) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "drop"]))
        if edit == "replace":
            header[k] = draw(st.sampled_from(NAMES))
        elif edit == "insert":
            header.insert(k, draw(st.sampled_from(NAMES)))
        elif len(header) > 1:
            del header[k]
    return header, header == start


@pytest.fixture(scope="module")
def header_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("headers")


@settings(max_examples=300, deadline=None)
@given(mixed_headers(), st.data())
def test_header_check_rejects_or_round_trips(header_dir, case, data):
    header, unchanged = case
    # a matching numeric row: 17-digit floats and an integer flag
    values = data.draw(st.lists(st.floats(), min_size=len(header) - 1,
                                max_size=len(header) - 1))
    row = [format(x, ".17g") for x in values] + [str(data.draw(st.integers(0, 1)))]
    text = ",".join(header) + "\n" + ",".join(row) + "\n"
    try:
        back = parse_text(text, header_dir / "mixed.csv")
    except TraceFormatError:
        assert not unchanged
        return
    assert column_names(back) == header
    assert csv_text(back, header_dir / "again.csv") == text
