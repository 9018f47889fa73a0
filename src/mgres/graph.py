"""Sparse communication digraph between DGs and its channel layout.

DG i receives information from DG j iff adjacency[i, j] > 0.  A pinned DG
(pinning[i] > 0) additionally receives the global reference.  Every DG also
feeds its own measurement back to its local controller, so the channel set
contains a self loop per DG on top of the digraph edges.  Errors number DGs
from 1, as scenario files do: a[i, j] is the edge dg(j+1) -> dg(i+1).  The
tracking errors are ``secondary.ConsensusMap``'s (oracle: tests/reference.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGNALS = ("voltage", "frequency")


class GraphError(ValueError):
    """Raised when a communication graph violates a structural invariant."""


@dataclass(frozen=True, eq=False)   # its arrays: compared and hashed by identity
class CommGraph:
    adjacency: np.ndarray  # (n, n), a_ij > 0 iff DG i receives from DG j
    pinning: np.ndarray    # (n,),   b_i > 0 iff DG i receives the reference

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=float)
        pin = np.asarray(self.pinning, dtype=float)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "pinning", pin)
        validate(self)
        adj.setflags(write=False)
        pin.setflags(write=False)
        # frozen and read-only, so the layout is a fact of the graph: derived once
        pairs = [(i, i) for i in range(self.n)]
        pairs += [(j, i) for i in range(self.n) for j in self.in_neighbors(i)]
        object.__setattr__(self, "_channels",
                           tuple((s, d, sig) for (s, d) in pairs for sig in SIGNALS))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def in_neighbors(self, i: int) -> list[int]:
        """DGs whose values DG i receives (support of row i)."""
        return [int(j) for j in np.flatnonzero(self.adjacency[i])]

    def channels(self) -> list[tuple[int, int, str]]:
        """All (src, dst, signal) value channels: one self loop per DG, then
        the edges by destination, each carrying voltage then frequency.  The
        layout is derived once per graph; each call returns a fresh list."""
        return list(self._channels)


def validate(graph: CommGraph) -> None:
    """Check all structural invariants, raising GraphError on the first violation.

    Reachability is checked by traversal from a virtual reference node that
    has an edge to every pinned DG.
    """
    adj = np.asarray(graph.adjacency, dtype=float)
    pin = np.asarray(graph.pinning, dtype=float)

    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise GraphError(f"adjacency must be square, got shape {adj.shape}")
    n = adj.shape[0]
    if pin.shape != (n,):
        raise GraphError(f"pinning must have length {n}, got shape {pin.shape}")
    if n < 1:
        raise GraphError("graph needs at least one DG")
    if not (np.isfinite(adj).all() and np.isfinite(pin).all()):
        raise GraphError("graph weights must be finite")

    neg = np.argwhere(adj < 0)
    if neg.size:
        i, j = neg[0]
        raise GraphError(f"negative weight {adj[i, j]} on edge dg{j + 1} -> dg{i + 1}")
    diag = np.flatnonzero(np.diag(adj))
    if diag.size:
        i = diag[0]
        raise GraphError(f"nonzero diagonal weight {adj[i, i]} on edge dg{i + 1} -> dg{i + 1}")
    if (pin < 0).any():
        i = int(np.flatnonzero(pin < 0)[0])
        raise GraphError(f"negative pinning gain {pin[i]} of DG {i + 1}")
    if not (pin > 0).any():
        raise GraphError("no pinned DG (all b_i are zero)")

    # from the virtual reference node: info flows j -> i when a[i, j] > 0
    reached = pin > 0
    while (new := (adj[:, reached] > 0).any(axis=1) & ~reached).any():
        reached |= new
    if not reached.all():
        i = int(np.flatnonzero(~reached)[0])
        raise GraphError(f"DG {i + 1} is unreachable from the reference")


def ring_graph(n: int = 4) -> CommGraph:
    """Undirected ring 1-2-...-n-1 with unit weights, DG1 pinned.

    The default 4-DG topology: DG1's in-neighbors are DG2 and DG4 and only
    DG1 sees the global reference.
    """
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = 1.0
        adj[i, (i - 1) % n] = 1.0
    if n == 1:
        adj[:] = 0.0
    pin = np.zeros(n)
    pin[0] = 1.0
    return CommGraph(adj, pin)
