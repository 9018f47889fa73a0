"""Time-indexed simulation records and their normative CSV form.

CSV schema (bit-exact, one column per recorded quantity):

    t, dg{i}.v, dg{i}.w, dg{i}.P, dg{i}.Q, dg{i}.Vn, dg{i}.wn,
    ch.dg{s}->dg{d}.{sig}.clean, ch.dg{s}->dg{d}.{sig}.recv,
    load{k}.I, attack_active

Values are decimal with 17 significant digits, rows ordered by time, so
export -> parse -> export is byte-identical.
"""

from __future__ import annotations

import io
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import inbound_voltage_channels

DG_SIGNALS = ("v", "w", "P", "Q", "Vn", "wn")


class TraceFormatError(ValueError):
    pass


@dataclass
class Trace:
    t: np.ndarray                                # (N,)
    dg: dict[str, np.ndarray]                    # signal -> (N, n_dg)
    channels: list[tuple[int, int, str]]         # (src, dst, signal)
    ch_clean: np.ndarray                         # (N, C)
    ch_recv: np.ndarray                          # (N, C)
    load_buses: list[int]
    load_current: np.ndarray                     # (N, K)
    attack_active: np.ndarray                    # (N,) 0/1
    # run metadata; not part of the CSV schema
    v_ref: float | None = None
    w_ref: float | None = None
    diverged: bool = False
    diverged_time: float | None = None
    max_power_residual: float = 0.0

    @property
    def n_dg(self) -> int:
        return self.dg["v"].shape[1]


def dg1_voltage_triple(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Clean and received [v_11, v_1j, v_1k] series of DG1, the attacked DG."""
    idx = inbound_voltage_channels(trace.channels, 0)
    if len(idx) != 3:
        raise TraceFormatError(
            f"DG1 has {len(idx)} inbound voltage channels, the "
            "7-input controller needs exactly 3 (self + two neighbors)")
    return trace.ch_clean[:, idx], trace.ch_recv[:, idx]


def column_names(trace: Trace) -> list[str]:
    cols = ["t"]
    for i in range(trace.n_dg):
        cols += [f"dg{i + 1}.{sig}" for sig in DG_SIGNALS]
    for (s, d, sig) in trace.channels:
        cols.append(f"ch.dg{s + 1}->dg{d + 1}.{sig}.clean")
        cols.append(f"ch.dg{s + 1}->dg{d + 1}.{sig}.recv")
    for k in range(len(trace.load_buses)):
        cols.append(f"load{k + 1}.I")
    cols.append("attack_active")
    return cols


def export_csv(trace: Trace, path=None) -> str | None:
    """Write the trace in the normative CSV schema; returns the text when no
    path is given."""
    cols = column_names(trace)
    # one float block in the CSV's column order, attack_active aside
    block = np.empty((len(trace.t), len(cols) - 1))
    block[:, 0] = trace.t
    ch = 1 + len(DG_SIGNALS) * trace.n_dg           # first channel column
    for k, sig in enumerate(DG_SIGNALS):
        block[:, 1 + k:ch:len(DG_SIGNALS)] = trace.dg[sig]
    ld = ch + 2 * len(trace.channels)               # first load column
    block[:, ch:ld:2] = trace.ch_clean
    block[:, ch + 1:ld:2] = trace.ch_recv
    block[:, ld:] = trace.load_current
    # a channel repeats the DG signal it carries: key columns by their bytes (-0
    # and 0, or two NaN payloads, differ) and format each distinct one once a row
    seen: dict[bytes, int] = {}                     # a column's bits -> its slot
    slots = [seen.setdefault(col.tobytes(), len(seen)) for col in block.T]
    block = block[:, [slots.index(s) for s in range(len(seen))]]
    del seen                                        # a third of the block's bytes
    row_fmt = ",".join(f"{{{s}}}" for s in slots) + f",{{{block.shape[1]}}}\n"
    fmt = "{:.17g}".format
    lines = [",".join(cols) + "\n"]
    # row by row: a whole-block tolist() would hold ~4x the block as floats
    for row, flag in zip(block, trace.attack_active.astype(int).tolist()):
        lines.append(row_fmt.format(*map(fmt, row.tolist()), flag))
    text = "".join(lines)
    if path is None:
        return text
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return None


_CH_RE = re.compile(r"^ch\.dg(\d+)->dg(\d+)\.(\w+)\.(clean|recv)$")


def _bad_row(fh, width: int) -> str | None:
    """The first row after the header that np.loadtxt rejects or that is too wide or narrow."""
    for k, row in enumerate(fh, start=1):
        if k > 1 and row.strip():
            try:
                n = np.loadtxt([row], delimiter=",", comments=None).size
            except ValueError as exc:
                return f"line {k}: {str(exc).replace(' at row 0,', ' at')}"
            if n != width:
                return f"line {k}: row width {n} does not match the header's {width}"


def parse_csv(source) -> Trace:
    """Rebuild a Trace from its CSV form (file path or CSV text).  NumPy's C
    reader rounds correctly: each value has the bits float() gives its text."""
    text = isinstance(source, str) and "\n" in source
    where = "CSV text" if text else str(source)
    with (io.StringIO(source) if text else open(source)) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header[0] != "t" or header[-1] != "attack_active":
            raise TraceFormatError(
                f"{where}: CSV header must start with t and end with attack_active")
        try:
            with warnings.catch_warnings():     # a header-only file has no rows
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if data.size and data.shape[1] != len(header):
                raise ValueError("row width does not match the header")
        except ValueError as exc:
            fh.seek(0)
            raise TraceFormatError(f"{where}: {_bad_row(fh, len(header)) or exc}") from exc
    data = data.reshape(-1, len(header))

    dg_cols, ch_pos, load_cols = [], {}, []
    for pos, name in enumerate(header[1:-1], start=1):
        if name.startswith("dg"):
            dg_cols.append((pos, name))
        elif name.startswith("ch."):
            m = _CH_RE.match(name)
            if not m:
                raise TraceFormatError(f"{where}: bad channel column {name!r}")
            key = (int(m.group(1)) - 1, int(m.group(2)) - 1, m.group(3))
            ch_pos.setdefault(key, {})[m.group(4)] = pos
        elif name.startswith("load"):
            load_cols.append(pos)
        else:
            raise TraceFormatError(f"{where}: unrecognized column {name!r}")
    if any(len(p) != 2 for p in ch_pos.values()):
        raise TraceFormatError(f"{where}: every channel needs both a clean and a recv column")

    n_dg = len(dg_cols) // len(DG_SIGNALS)
    dg = {sig: np.empty((data.shape[0], n_dg)) for sig in DG_SIGNALS}
    for pos, name in dg_cols:
        num, sig = name[2:].split(".")
        dg[sig][:, int(num) - 1] = data[:, pos]
    return Trace(
        t=data[:, 0], dg=dg, channels=list(ch_pos),
        ch_clean=data[:, [p["clean"] for p in ch_pos.values()]],
        ch_recv=data[:, [p["recv"] for p in ch_pos.values()]],
        load_buses=list(range(len(load_cols))),
        load_current=data[:, load_cols],
        attack_active=data[:, -1].astype(int),
    )


def traces_equal(a: Trace, b: Trace) -> bool:
    """Exact equality of the recorded columns (metadata excluded)."""
    if a.channels != b.channels or len(a.load_buses) != len(b.load_buses):
        return False
    if not np.array_equal(a.t, b.t):
        return False
    for sig in DG_SIGNALS:
        if not np.array_equal(a.dg[sig], b.dg[sig]):
            return False
    return (np.array_equal(a.ch_clean, b.ch_clean)
            and np.array_equal(a.ch_recv, b.ch_recv)
            and np.array_equal(a.load_current, b.load_current)
            and np.array_equal(a.attack_active, b.attack_active))
