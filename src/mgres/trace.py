"""Time-indexed simulation records and their normative CSV form.

CSV schema (bit-exact, one column per recorded quantity):

    t, dg{i}.v, dg{i}.w, dg{i}.P, dg{i}.Q, dg{i}.Vn, dg{i}.wn,
    ch.dg{s}->dg{d}.{sig}.clean, ch.dg{s}->dg{d}.{sig}.recv,
    load{k}.I, attack_active

Values are decimal with 17 significant digits, rows ordered by time, so
export -> parse -> export is byte-identical.  A ``Trace`` holds the float
columns as one block in this order: a run records into it, ``export_csv``
formats it and ``parse_csv`` wraps it once the header matches.
"""

from __future__ import annotations

import io
import os
import re
import warnings
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .scenario import RunStart

DG_SIGNALS = ("v", "w", "P", "Q", "Vn", "wn")


class TraceFormatError(ValueError):
    pass


@dataclass
class Trace:
    """Recorded columns as one float block, ``data``, in the CSV's column order
    (``attack_active`` aside); ``t``, ``dg[sig]``, ``ch_clean``, ``ch_recv``
    and ``load_current`` are views of it."""
    data: np.ndarray                             # (N, W)
    n_dg: int
    channels: list[tuple[int, int, str]]         # (src, dst, signal)
    attack_active: np.ndarray                    # (N,) 0/1
    # run metadata; not part of the CSV schema
    v_ref: float | None = None
    w_ref: float | None = None
    diverged: bool = False
    diverged_time: float | None = None
    max_power_residual: float = 0.0
    # the states run_scenario was asked for, by the sample step they precede
    forks: dict[int, RunStart] = field(default_factory=dict)

    @classmethod
    def empty(cls, rows: int, n_dg: int, channels: list[tuple[int, int, str]],
              n_load: int) -> Trace:
        """A zero-filled trace of ``rows`` samples with this layout."""
        width = 1 + len(DG_SIGNALS) * n_dg + 2 * len(channels) + n_load
        return cls(np.zeros((rows, width)), n_dg, list(channels), np.zeros(rows, dtype=int))

    @property
    def _ch(self) -> int:                        # first channel column
        return 1 + len(DG_SIGNALS) * self.n_dg

    @property
    def _load(self) -> int:                      # first load column
        return self._ch + 2 * len(self.channels)

    @property
    def t(self) -> np.ndarray:                   # (N,)
        return self.data[:, 0]

    @property
    def dg_block(self) -> np.ndarray:            # (N, n_dg, len(DG_SIGNALS))
        return self.data[:, 1:self._ch].reshape(len(self.data), self.n_dg, len(DG_SIGNALS))

    @property
    def dg(self) -> dict[str, np.ndarray]:      # signal -> (N, n_dg)
        return dict(zip(DG_SIGNALS, self.dg_block.transpose(2, 0, 1)))

    @property
    def ch_clean(self) -> np.ndarray:            # (N, C)
        return self.data[:, self._ch:self._load:2]

    @property
    def ch_recv(self) -> np.ndarray:             # (N, C)
        return self.data[:, self._ch + 1:self._load:2]

    @property
    def load_current(self) -> np.ndarray:        # (N, K)
        return self.data[:, self._load:]


def column_names(trace: Trace) -> list[str]:
    cols = ["t"]
    for i in range(trace.n_dg):
        cols += [f"dg{i + 1}.{sig}" for sig in DG_SIGNALS]
    for (s, d, sig) in trace.channels:
        cols.append(f"ch.dg{s + 1}->dg{d + 1}.{sig}.clean")
        cols.append(f"ch.dg{s + 1}->dg{d + 1}.{sig}.recv")
    for k in range(trace.load_current.shape[1]):
        cols.append(f"load{k + 1}.I")
    cols.append("attack_active")
    return cols


def export_csv(trace: Trace, path=None, head: str = "") -> str | None:
    """Write the trace in the normative CSV schema; returns the text when no
    path is given.

    A non-empty ``head`` is the CSV text, header line first, whose rows the
    trace's rows continue: it is written as it is, in place of the header,
    so rows that a run shares with an earlier one are copied rather than
    formatted again.  Its first line must be the trace's header.
    """
    header = ",".join(column_names(trace)) + "\n"
    if head and not head.startswith(header):
        raise ValueError("CSV head's first line is not the trace's header")
    # a channel repeats the DG signal it carries: key columns by their bytes (-0
    # and 0, or two NaN payloads, differ) and format each distinct one once a row
    seen: dict[bytes, int] = {}                     # a column's bits -> its slot
    slots = [seen.setdefault(col.tobytes(), len(seen)) for col in trace.data.T]
    distinct = trace.data[:, [slots.index(s) for s in range(len(seen))]]
    del seen                                        # a third of the data's bytes
    row_fmt = ",".join(f"{{{s}}}" for s in slots) + f",{{{distinct.shape[1]}}}\n"
    fmt = "{:.17g}".format
    lines = [head or header]
    # row by row: a whole-block tolist() would hold ~4x the block as floats
    for row, flag in zip(distinct, trace.attack_active.astype(int).tolist()):
        lines.append(row_fmt.format(*map(fmt, row.tolist()), flag))
    text = "".join(lines)
    if path is None:
        return text
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    try:
        os.replace(tmp, path)
    except OSError:   # path is a directory, say
        os.remove(tmp)
        raise
    return None


_CH_RE = re.compile(r"^ch\.dg(\d+)->dg(\d+)\.(\w+)\.clean$")
# the kind of column a name prefix announces, for the header check's message
_KINDS = (("ch.", "channel "), ("dg", "DG "), ("load", "load "))


def _bad_row(fh, width: int) -> str | None:
    """The first row after the header that np.loadtxt rejects, that is too wide
    or narrow, or whose attack_active is not 0 or 1."""
    for k, row in enumerate(fh, start=1):
        if k > 1 and row.strip():
            try:
                values = np.loadtxt([row], delimiter=",", comments=None)
            except ValueError as exc:
                return f"line {k}: {str(exc).replace(' at row 0,', ' at')}"
            if values.size != width:
                return f"line {k}: row width {values.size} does not match the header's {width}"
            if values[-1] not in (0, 1):
                return f"line {k}: attack_active must be 0 or 1, got {values[-1]:g}"


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
            if not np.isin(data[:, -1:], (0, 1)).all():
                raise ValueError("attack_active is not 0 or 1")
        except ValueError as exc:
            fh.seek(0)
            raise TraceFormatError(f"{where}: {_bad_row(fh, len(header)) or exc}") from exc
    data = data.reshape(-1, len(header))

    # the layout the header announces; any name out of place fails the check
    names = header[1:-1]
    n_dg = sum(name.startswith("dg") for name in names) // len(DG_SIGNALS)
    channels = [(int(m[1]) - 1, int(m[2]) - 1, m[3]) for m in map(_CH_RE.match, names) if m]
    trace = Trace(data[:, :-1], n_dg, channels, data[:, -1].astype(int))
    expected = column_names(trace)
    if header != expected:
        k, (got, want) = next((k, pair) for k, pair in enumerate(zip_longest(header, expected))
                              if pair[0] != pair[1])
        kind = next((noun for prefix, noun in _KINDS if str(got).startswith(prefix)), "")
        raise TraceFormatError(f"{where}: bad {kind}column {got!r} at position {k + 1}, "
                               f"expected {want!r}")
    return trace


def traces_equal(a: Trace, b: Trace) -> bool:
    """Exact equality of the recorded columns (metadata excluded)."""
    return (column_names(a) == column_names(b) and np.array_equal(a.data, b.data)
            and np.array_equal(a.attack_active, b.attack_active))
