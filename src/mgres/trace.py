"""Time-indexed simulation records and their normative CSV form.

CSV schema (bit-exact, one column per recorded quantity):

    t, dg{i}.v, dg{i}.w, dg{i}.P, dg{i}.Q, dg{i}.Vn, dg{i}.wn,
    ch.dg{s}->dg{d}.{sig}.recv, load{k}.I, attack_active

Values are decimal with 17 significant digits, rows ordered by time, so
export -> parse -> export is byte-identical.  A ``Trace`` holds every
column, ``attack_active`` (0.0 or 1.0) last, as one float block in this
order: a run records into it, ``export_csv`` formats it and ``parse_csv``
wraps it once the header matches; both take as ``head`` the CSV that a
resumed run's leading rows copy.  A channel's clean (pre-attack) value has
no column: it is its source DG's v or w, which ``Trace.ch_clean`` gathers.
"""

from __future__ import annotations

import io
import os
import re
import warnings
from dataclasses import dataclass, field
from itertools import chain, zip_longest
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .scenario import RunStart

DG_SIGNALS = ("v", "w", "P", "Q", "Vn", "wn")
CH_SOURCE = {"voltage": 0, "frequency": 1}      # channel signal -> its DG_SIGNALS slot


class TraceFormatError(ValueError):
    pass


@dataclass
class Trace:
    """Recorded columns as one float block, ``data``, in the CSV's column order
    (the attack flag last); ``t``, ``dg[sig]``, ``ch_recv``, ``load_current``
    and ``attack_active`` are views of it, ``ch_clean`` a read-only copy."""
    data: np.ndarray                             # (N, W)
    n_dg: int
    channels: list[tuple[int, int, str]]         # (src, dst, signal)
    # run metadata; not part of the CSV schema
    v_ref: float | None = None
    w_ref: float | None = None
    diverged_time: float | None = None           # None: the run did not diverge
    diverged_cause: str | None = None            # the guard's or the network's message
    max_power_residual: float = 0.0
    # the states run_scenario was asked for, by the sample step they precede
    forks: dict[int, RunStart] = field(default_factory=dict)

    @classmethod
    def empty(cls, rows: int, n_dg: int, channels: list[tuple[int, int, str]],
              n_load: int) -> Trace:
        """A zero-filled trace of ``rows`` samples with this layout."""
        width = 2 + len(DG_SIGNALS) * n_dg + len(channels) + n_load   # 2: t and the flag
        return cls(np.zeros((rows, width)), n_dg, list(channels))

    @property
    def diverged(self) -> bool:
        return self.diverged_time is not None

    @property
    def _ch(self) -> int:                        # first channel column
        return 1 + len(DG_SIGNALS) * self.n_dg

    @property
    def _load(self) -> int:                      # first load column
        return self._ch + len(self.channels)

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
    def ch_clean(self) -> np.ndarray:            # (N, C): source DG's v or w
        clean = self.dg_block[:, [s for s, _, _ in self.channels],
                              [CH_SOURCE[sig] for _, _, sig in self.channels]]
        clean.flags.writeable = False            # a copy: a write would be lost
        return clean

    @property
    def ch_recv(self) -> np.ndarray:             # (N, C)
        return self.data[:, self._ch:self._load]

    @property
    def load_current(self) -> np.ndarray:        # (N, K)
        return self.data[:, self._load:-1]

    @property
    def attack_active(self) -> np.ndarray:       # (N,) 0.0 or 1.0
        return self.data[:, -1]


def column_names(trace: Trace) -> list[str]:
    cols = ["t"]
    for i in range(trace.n_dg):
        cols += [f"dg{i + 1}.{sig}" for sig in DG_SIGNALS]
    cols += [f"ch.dg{s + 1}->dg{d + 1}.{sig}.recv" for s, d, sig in trace.channels]
    cols += [f"load{k + 1}.I" for k in range(trace.load_current.shape[1])]
    return cols + ["attack_active"]


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
    # an unattacked channel repeats its source DG's column (21 of 24 under a
    # one-DG attack): key columns by their bytes (-0 and 0, or two NaN payloads,
    # differ) and format each distinct one once a row
    seen: dict[bytes, int] = {}                     # a column's bits -> its slot
    slots = [seen.setdefault(col.tobytes(), len(seen)) for col in trace.data.T]
    distinct = trace.data[:, [slots.index(s) for s in range(len(seen))]]
    del seen                                        # near half the data's bytes
    row_fmt = ",".join(f"{{{s}}}" for s in slots) + "\n"
    fmt = "{:.17g}".format
    lines = [head or header]
    # row by row: a whole-block tolist() would hold ~4x the block as floats
    for row in distinct:
        lines.append(row_fmt.format(*map(fmt, row.tolist())))
    text = "".join(lines)
    return text if path is None else write_text(path, text)


def write_text(path, text: str) -> None:
    """Replace the file ``path`` whole with ``text``: it is written to
    ``<path>.tmp`` and renamed over ``path``, so a reader never finds it cut
    short.  Every file mgres writes goes through here."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    try:
        os.replace(tmp, path)
    except OSError:   # path is a directory, say
        os.remove(tmp)
        raise


# a DG number has at most nine digits (int() refuses over 4 300): a longer one is no channel
_CH_RE = re.compile(rf"^ch\.dg(\d{{1,9}})->dg(\d{{1,9}})\.({'|'.join(CH_SOURCE)})\.recv$")
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


def _layout(header: list[str], where: str) -> tuple[int, list]:
    """(n_dg, channels) of the layout the header announces.  A name out of
    place raises; so does a channel to or from a DG that the layout lacks."""
    names = header[1:-1]
    n_dg = sum(name.startswith("dg") for name in names) // len(DG_SIGNALS)
    found = {k: m for k, m in enumerate(map(_CH_RE.match, header)) if m}
    channels = [(int(m[1]) - 1, int(m[2]) - 1, m[3]) for m in found.values()]
    n_load = len(names) - len(DG_SIGNALS) * n_dg - len(channels)
    expected = column_names(Trace.empty(0, n_dg, channels, n_load))
    if header != expected:
        k, (got, want) = next((k, pair) for k, pair in enumerate(zip_longest(header, expected))
                              if pair[0] != pair[1])
        kind = next((noun for prefix, noun in _KINDS if str(got).startswith(prefix)), "")
        raise TraceFormatError(f"{where}: bad {kind}column {got!r} at position {k + 1}, "
                               f"expected {want!r}")
    for k, (src, dst, _) in zip(found, channels):
        for dg in (src, dst):
            if not 0 <= dg < n_dg:
                raise TraceFormatError(f"{where}: bad channel column {header[k]!r} at position "
                                       f"{k + 1}: the trace has no DG{dg + 1}")
    return n_dg, channels


def parse_csv(source, head: tuple[str, Trace] | None = None) -> Trace:
    """Rebuild a Trace from its CSV form (file path or CSV text).  NumPy's C
    reader rounds correctly: each value has the bits float() gives its text.
    The header is checked against the layout it announces before the rows
    are read.

    ``head`` mirrors ``export_csv``'s: the path and parsed Trace of the CSV
    whose rows this one's continue.  The leading lines, header first, that
    equal that file's lines as text take its rows, copied; the comparison
    stops at the first differing or blank line, and only the rest is read,
    so every row has the bits of a whole parse.  Both files are streamed.
    """
    text = isinstance(source, str) and "\n" in source
    where = "CSV text" if text else str(source)
    # a byte that is not UTF-8 reads as a character that no value or column holds
    with (io.StringIO(source) if text else open(source, errors="surrogateescape")) as fh:
        header = (line := fh.readline()).rstrip("\r\n").split(",")
        if header[0] != "t" or header[-1] != "attack_active":
            raise TraceFormatError(
                f"{where}: CSV header must start with t and end with attack_active")
        n_dg, channels = _layout(header, where)
        copied, rest = 0, fh
        if head is not None:
            with open(head[0], errors="surrogateescape") as src:
                shared = src.readline() == line   # the headers
                # past a blank line, which holds no row, line k would not hold row k - 1
                while (line := fh.readline()).strip() and shared and line == src.readline():
                    copied += 1
            rest = chain([line], fh)
        try:
            with warnings.catch_warnings():     # a header-only file has no rows
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(rest, delimiter=",", comments=None, ndmin=2)
            if data.size and data.shape[1] != len(header):
                raise ValueError("row width does not match the header")
            if not np.isin(data[:, -1:], (0, 1)).all():
                raise ValueError("attack_active is not 0 or 1")
        except ValueError as exc:
            fh.seek(0)
            raise TraceFormatError(f"{where}: {_bad_row(fh, len(header)) or exc}") from exc
    data = data.reshape(-1, len(header))
    if copied:
        data = np.concatenate((head[1].data[:copied], data))
    return Trace(data, n_dg, channels)

