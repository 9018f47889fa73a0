"""Reference oracles that the tests compare mgres against.

mgres runs none of them, so they are not part of the package.  Each keeps
calling mgres's own kernels, so a test that compares a production path with
an oracle here still checks that path's arithmetic:

- ``forward_batch`` and ``mse`` run ``ann._Forward``, the forward pass of
  the fit and of ``ann_controller``;
- ``gradient`` is the trainer's own backward pass, ``ann._FitSplit``'s, on
  one batch;
- ``tracking_errors`` is the cooperative error of one signal per DG, which
  ``secondary.ConsensusMap`` computes for both signals at once;
- ``traces_equal`` compares two traces' recorded columns.
"""

import numpy as np

from mgres import ann
from mgres.ann import N_IN, MlpParams, NormalizationSpec
from mgres.graph import CommGraph
from mgres.trace import Trace, column_names

# the identity maps: a normalised value is its raw value
UNIT_NORM = NormalizationSpec(np.zeros(N_IN), np.ones(N_IN), 0.0, 1.0)


def forward_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Network output for a batch of rows, in raw target units."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != N_IN:
        raise ValueError(f"expected (N, {N_IN}) input, got {x.shape}")
    out = ann._Forward(len(x)).run(params.norm.normalize_x(x), params.w1.T, params.b1,
                                   params.w2.T, params.b2)
    return out[:, 0] * params.norm.y_scale + params.norm.y_offset


def mse(params: MlpParams, x: np.ndarray, y: np.ndarray) -> float:
    r = forward_batch(params, x) - y
    return float(np.mean(r * r))


def gradient(params: MlpParams, x: np.ndarray, y: np.ndarray):
    """Analytic gradient of the batch MSE w.r.t. (w1, b1, w2, b2).

    Loss is L = (1/N) sum (forward(x) - y)^2 in raw target units.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("gradient needs a non-empty batch")
    split = ann._FitSplit(params.norm.normalize_x(x), y, params.norm)
    split.loss(ann._fit_vector(params))
    return ann._fit_layers(split.gradient())


def tracking_errors(graph: CommGraph, recv_self: np.ndarray,
                    recv: np.ndarray, reference: float) -> np.ndarray:
    """Cooperative errors e_i = sum_j a_ij (x_ii - x_ij) + b_i (x_ii - x*).

    recv_self[i] is DG i's received copy of its own signal; recv[i, j] its
    received copy of DG j's signal (only entries with a_ij > 0 are used).  A
    row vector recv means every DG receives the same values.
    """
    diff = graph.adjacency * (recv_self[:, None] - recv)
    return diff.sum(axis=1) + graph.pinning * (recv_self - reference)


def traces_equal(a: Trace, b: Trace) -> bool:
    """Exact equality of the recorded columns (metadata excluded)."""
    return column_names(a) == column_names(b) and np.array_equal(a.data, b.data)
