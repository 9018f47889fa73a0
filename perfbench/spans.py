"""In-memory call spans for the benchmark's traced run.

A span is one call into a wrapped function: its name, start, end, the span
that was open when it began (its parent) and the scenario run it belongs
to.  Spans live in flat typed arrays so that a traced run of a few hundred
thousand calls stays small.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded and nested, so
children never overlap.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Spans:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.runs: list = []     # run_info(...) of each scenario run, by run id
        self._stack = [-1]
        self._run = -1

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.run, self.start, self.end):
            del arr[:]
        self.runs.clear()

    def wrap(self, name: str, fn, run_info=None):
        """Return ``fn`` wrapped so that every call records a span.

        With ``run_info`` each call also opens a new scenario run: spans
        under it carry its run id, and ``run_info(*args, **kwargs)`` is kept
        in ``runs`` for the caller's own bookkeeping.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            if run_info is not None:
                outer = self._run
                self._run = len(self.runs)
                self.runs.append(run_info(*args, **kwargs))
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self._run)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if run_info is not None:
                    self._run = outer

        return traced

    def totals(self) -> tuple[dict[str, dict[str, float]], np.ndarray]:
        """Per-name ``calls``, ``total_s`` and ``self_s``, and a
        (runs x names) matrix of call counts per scenario run."""
        k = len(self.names)
        name = np.array(self.name, dtype=np.intp)
        parent = np.array(self.parent, dtype=np.intp)
        run = np.array(self.run, dtype=np.intp)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        per_name = {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                        "self_s": float(self_s[i])}
                    for i, n in enumerate(self.names)}
        in_run = run >= 0
        per_run = np.bincount(run[in_run] * k + name[in_run],
                              minlength=len(self.runs) * k).reshape(len(self.runs), k)
        return per_name, per_run


@contextmanager
def patched(targets):
    """Replace ``owner.attr`` by ``replacement`` for each target; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
