"""Resilient secondary voltage controller: a 7-10-1 regression network.

The input row is the table ``FEATURES``, one source name per column; for
DG1, the attacked DG, x = [v11, v12, v14, vh11, vh12, vh14, v*]: the received
voltage triple (``feature_channels``: its own, then its in-neighbors'), twice,
and v*.  ``ConsensusMap.positions`` resolves it onto the secondary layer's
input x, the one source of ``AnnKernel``'s row; ``build_dataset`` onto a
trace's columns, where the paired rows read the first triple from the clean
channels, the source DGs' ``v`` columns (unobservable at run time), and
attacked runs add runtime rows.

Hidden layer: 10 units with tansig = 2/(1+exp(-2z)) - 1 (the hyperbolic
tangent); output layer: purelin (affine).  Trained offline by full-batch
gradient descent with backtracking step control.  Runs that resume from a
shared run repeat its rows bit for bit, so each split of the fit holds its
distinct rows once, normalised once, with their counts, in buffers allocated
once per split.  Its loss is still the mean over every row, and on rows
without copies it is bit-equal to ``mse``, the inference path's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .trace import write_text

TRIPLE = ("recv.own", "recv.nb1", "recv.nb2")   # in feature_channels' order
FEATURES = TRIPLE + TRIPLE + ("v_ref",)   # the input row, one source per column
N_IN = len(FEATURES)
N_HIDDEN = 10
SETPOINT_MIN = 0.5   # pu clamp on the emitted voltage set-point
SETPOINT_MAX = 1.5


class DatasetError(ValueError):
    pass


class TrainingError(RuntimeError):
    pass


def tansig(z):
    """Hidden activation 2/(1+exp(-2z)) - 1, i.e. the hyperbolic tangent."""
    return np.tanh(z)


@dataclass(frozen=True, eq=False)   # its arrays: compared and hashed by identity
class NormalizationSpec:
    """Per-feature affine maps: normalized = (raw - offset) / scale."""
    x_offset: np.ndarray   # (7,)
    x_scale: np.ndarray    # (7,)
    y_offset: float
    y_scale: float

    def __post_init__(self):
        xo = np.asarray(self.x_offset, dtype=float)
        xs = np.asarray(self.x_scale, dtype=float)
        object.__setattr__(self, "x_offset", xo)
        object.__setattr__(self, "x_scale", xs)
        if xo.shape != (N_IN,) or xs.shape != (N_IN,):
            raise ValueError(f"normalization maps must have length {N_IN}")
        for name, val in (("x_offset", xo), ("x_scale", xs),
                          ("y_offset", self.y_offset), ("y_scale", self.y_scale)):
            if not np.isfinite(val).all():
                raise ValueError(f"normalization {name} contains non-finite entries")
        if (xs == 0).any() or self.y_scale == 0:
            raise ValueError("normalization scales must be nonzero")

    @classmethod
    def identity(cls) -> "NormalizationSpec":
        return cls(np.zeros(N_IN), np.ones(N_IN), 0.0, 1.0)

    @classmethod
    def from_data(cls, x: np.ndarray, y: np.ndarray) -> "NormalizationSpec":
        """Affine map of each feature (and the target) to [-1, 1] via min/max."""
        lo, hi = x.min(axis=0), x.max(axis=0)
        off = (hi + lo) / 2.0
        scale = (hi - lo) / 2.0
        scale[scale == 0] = 1.0
        ylo, yhi = float(y.min()), float(y.max())
        yoff = (yhi + ylo) / 2.0
        yscale = (yhi - ylo) / 2.0 or 1.0
        return cls(off, scale, yoff, yscale)

    def normalize_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.x_offset) / self.x_scale

    def normalize_y(self, y):
        return (y - self.y_offset) / self.y_scale

    def denormalize_y(self, yn):
        return yn * self.y_scale + self.y_offset


@dataclass(frozen=True, eq=False)   # its arrays: compared and hashed by identity
class MlpParams:
    w1: np.ndarray   # (10, 7)
    b1: np.ndarray   # (10,)
    w2: np.ndarray   # (1, 10)
    b2: np.ndarray   # (1,)
    norm: NormalizationSpec

    def __post_init__(self):
        for name, arr, shape in (("w1", self.w1, (N_HIDDEN, N_IN)),
                                 ("b1", self.b1, (N_HIDDEN,)),
                                 ("w2", self.w2, (1, N_HIDDEN)),
                                 ("b2", self.b2, (1,))):
            arr = np.asarray(arr, dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")


def init_params(rng: np.random.Generator,
                norm: NormalizationSpec | None = None) -> MlpParams:
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    lim1 = 1.0 / np.sqrt(N_IN)
    lim2 = 1.0 / np.sqrt(N_HIDDEN)
    return MlpParams(
        w1=rng.uniform(-lim1, lim1, (N_HIDDEN, N_IN)),
        b1=rng.uniform(-lim1, lim1, N_HIDDEN),
        w2=rng.uniform(-lim2, lim2, (1, N_HIDDEN)),
        b2=rng.uniform(-lim2, lim2, 1),
        norm=norm if norm is not None else NormalizationSpec.identity(),
    )


class _Forward:
    """The MLP's two layers on ``rows`` normalised rows, into buffers allocated
    once: h = tansig(xn w1^T + b1), out = h w2^T + b2.  Every forward pass
    (``forward_batch``, the fit's loss, ``ann_controller``) runs here.

    ``h`` is the first ``rows`` rows of a buffer that holds whole blocks of
    ``block`` rows, and the bias add and tansig run on those blocks: ``b1``
    is then b1 repeated ``block`` times, so numpy's inner loop runs over
    10 * block entries rather than 10, at about half the cost.  Each entry
    still gets one rounded add.  The rows past ``rows`` pad the last block
    and no product reads them.  ``b2`` is added out of place, from ``pre`` =
    h w2^T into ``out``: NumPy's in-place add on one entry costs twice as much.
    """

    def __init__(self, rows: int, block: int = 1, pre: np.ndarray | None = None):
        self.hb = np.zeros((-(-rows // block), N_HIDDEN * block))
        self.h = self.hb.reshape(-1, N_HIDDEN)[:rows]
        self.pre = np.empty((rows, 1)) if pre is None else pre   # h w2^T
        self.out = np.empty((rows, 1))

    def run(self, xn, w1t, b1, w2t, b2) -> np.ndarray:
        h, hb, pre, out = self.h, self.hb, self.pre, self.out
        xn.dot(w1t, h)
        np.add(hb, b1, hb)
        np.tanh(hb, hb)                     # tansig
        h.dot(w2t, pre)
        np.add(pre, b2, out)
        return out


def forward_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Network output for a batch of rows, in raw target units."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != N_IN:
        raise ValueError(f"expected (N, {N_IN}) input, got {x.shape}")
    out = _Forward(len(x)).run(params.norm.normalize_x(x), params.w1.T, params.b1,
                               params.w2.T, params.b2)
    return params.norm.denormalize_y(out[:, 0])


def forward(params: MlpParams, x: np.ndarray) -> float:
    """Single-row forward pass."""
    x = np.asarray(x, dtype=float)
    if x.shape != (N_IN,):
        raise ValueError(f"expected length-{N_IN} input, got shape {x.shape}")
    return float(forward_batch(params, x[None, :])[0])


def mse(params: MlpParams, x: np.ndarray, y: np.ndarray) -> float:
    r = forward_batch(params, x) - y
    return float(np.mean(r * r))


# The fit's weights as one vector, in the layouts its products read: w1^T as
# a C-order (7, 10) block, b1, w2^T (10, 1) and b2.  A candidate step is then
# one vector expression; the model keeps MlpParams' (10, 7) layout.
_W1T = slice(0, N_IN * N_HIDDEN)
_B1 = slice(_W1T.stop, _W1T.stop + N_HIDDEN)
_W2T = slice(_B1.stop, _B1.stop + N_HIDDEN)
_B2 = slice(_W2T.stop, _W2T.stop + 1)


def _fit_vector(params: MlpParams) -> np.ndarray:
    return np.concatenate([params.w1.T.ravel(), params.b1, params.w2.ravel(), params.b2])


def _fit_layers(v: np.ndarray) -> tuple:
    """(w1, b1, w2, b2) in MlpParams' shapes from a fit vector (weights or
    gradient).  w1 is copied into C order, the layout ``load_model`` gives:
    the bits of a one-row product on ``w1.T`` depend on it."""
    return (np.ascontiguousarray(v[_W1T].reshape(N_IN, N_HIDDEN).T), v[_B1],
            v[_W2T].reshape(1, N_HIDDEN), v[_B2])


class _FitSplit(_Forward):
    """One split of a fit: its distinct rows, normalised once, their counts,
    and the kernel's temporaries.

    The split keeps each distinct (xn, y) row, compared as bytes, once, in
    the order of its first occurrence, with its count c.  ``loss(w)`` is the
    forward pass of ``forward_batch`` and ``mse`` for the fit vector w on
    this split's ``_Forward`` buffers, and returns sum(c r^2) / N over the N
    rows the split was given: the mean over every row.  ``gradient()`` is the
    backward pass for the weights of the last ``loss`` call, which left
    tansig(a1) and the residual in ``h``/``r``; it weights the residual by c,
    then reuses ``h`` for 1 - h^2, and writes the gradient into one fit
    vector ``g``, overwritten by the next call.  On rows without copies every
    c is 1 and the rows keep their order, so both are bit-equal to the
    unweighted pass, and ``loss`` to ``mse`` on the raw rows.

    Each product and reduction reads the layout that is fastest for it and
    gives the bits of the plain NumPy expression it replaces (tests/test_ann.py
    compares them at 1, 500, 3 389 and 9 000 rows):
    - xn (N, 7) @ w1^T reads the C-order (7, 10) block of w, not the F-order
      view ``w1.T`` (OpenBLAS's matrix product gives the same bits on both
      for N >= 2).  One row takes numpy's matrix-vector path, whose bits
      depend on the layout, so a one-row split reads w1^T in F order, as
      ``forward_batch`` does;
    - the bias add runs on blocks of ``BLOCK`` rows (``_Forward``);
    - d_h = d_out w2 is the K = 1 product ``np.dot(d_out[:, None], w2)``:
      one rounding per entry, as the broadcast multiply, at about a third
      of its cost;
    - the loss is ``np.add.reduce`` of c r^2, divided by N: with unit counts,
      the reduction and the division of ``np.mean``;
    - the column sums of d_a1 go through ``einsum``, which adds rows in row
      order, the order of ``d.sum(axis=0)``, at a fifth of its cost;
    - g_w1 is ``d_a1.T @ xn`` into a (10, 7) buffer, copied transposed into
      g; ``xn.T @ d_a1`` gives the same bits but is slower.
    """

    BLOCK = 32   # rows per bias-add block

    def __init__(self, xn: np.ndarray, y: np.ndarray, norm: NormalizationSpec):
        rows = np.column_stack([xn, y])        # a row's key is its bytes
        _, first, counts = np.unique(rows.view(np.dtype((np.void, rows.strides[0]))).ravel(),
                                     return_index=True, return_counts=True)
        order = np.argsort(first)              # distinct rows in order of first occurrence
        keep = first[order]
        xn, y = xn[keep], y[keep]
        self.c = counts[order].astype(float)   # each kept row's count
        self.n_rows = len(rows)                # N: the rows given, copies included
        n = len(keep)
        self.r = np.empty(n)               # h w2^T, then the residual, then d_out
        super().__init__(n, self.BLOCK, self.r[:, None])
        self.xn, self.y, self.norm = xn, y, norm
        self.w2 = None
        self.b1 = np.empty(self.BLOCK * N_HIDDEN)        # b1, repeated per block row
        self.b1_rows = self.b1.reshape(self.BLOCK, N_HIDDEN)
        self.d = np.empty((n, N_HIDDEN))   # d_h, then d_a1
        self.r2 = np.empty(n)
        self.g = np.empty(_B2.stop)
        self.g_w1 = np.empty((N_HIDDEN, N_IN))
        self.g_w1t = self.g[_W1T].reshape(N_IN, N_HIDDEN)

    def loss(self, w: np.ndarray) -> float:
        w1t = w[_W1T].reshape(N_IN, N_HIDDEN)
        if len(self.r) == 1:
            w1t = np.asfortranarray(w1t)
        self.w2 = w[_W2T].reshape(1, N_HIDDEN)
        r = self.r
        np.copyto(self.b1_rows, w[_B1])
        out = self.run(self.xn, w1t, self.b1, self.w2.T, w[_B2])
        np.multiply(out[:, 0], self.norm.y_scale, out=r)
        r += self.norm.y_offset
        r -= self.y
        np.multiply(r, r, out=self.r2)
        self.r2 *= self.c
        return float(np.add.reduce(self.r2)) / self.n_rows

    def gradient(self) -> np.ndarray:
        h, r, g = self.h, self.r, self.g
        r *= self.c                        # d_out = (2 / N) * c * r * y_scale
        r *= 2.0 / self.n_rows
        r *= self.norm.y_scale
        np.dot(r, h, out=g[_W2T])
        g[_B2] = np.add.reduce(r)
        d = np.dot(r[:, None], self.w2, out=self.d)
        h *= h
        np.subtract(1.0, h, out=h)
        d *= h
        np.einsum("ij->j", d, out=g[_B1])
        np.dot(d.T, self.xn, out=self.g_w1)
        self.g_w1t[...] = self.g_w1.T
        return g


def gradient(params: MlpParams, x: np.ndarray, y: np.ndarray):
    """Analytic gradient of the batch MSE w.r.t. (w1, b1, w2, b2).

    Loss is L = (1/N) sum (forward(x) - y)^2 in raw target units.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("gradient needs a non-empty batch")
    split = _FitSplit(params.norm.normalize_x(x), y, params.norm)
    split.loss(_fit_vector(params))
    return _fit_layers(split.gradient())


@dataclass
class Dataset:
    x: np.ndarray            # (N, 7)
    y: np.ndarray            # (N,)
    attacked: np.ndarray     # bool per row

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.attacked = np.asarray(self.attacked, dtype=bool)
        n = self.x.shape[0]
        if self.x.shape != (n, N_IN) or self.y.shape != (n,):
            raise DatasetError(f"inconsistent dataset shapes {self.x.shape} / {self.y.shape}")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise DatasetError("dataset contains non-finite values")

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    max_epochs: int = 1000
    split: float = 0.75          # train fraction (3:1 train/validation)
    tolerance: float = 1e-12     # stop when train MSE improvement falls below
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.split < 1:
            raise ValueError("split must be in (0, 1)")
        if self.max_epochs < 1 or not 0 < self.learning_rate < np.inf:
            raise ValueError("max_epochs >= 1 and a finite learning_rate > 0 required")
        if not np.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainReport:
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    accepted: list[bool] = field(default_factory=list)
    best_val_mse: float = np.inf
    best_epoch: int = -1


def train(dataset: Dataset, config: TrainConfig) -> tuple[MlpParams, TrainReport]:
    """Full-batch gradient descent with backtracking step control.

    The step is halved when the candidate raises the train MSE or makes it
    NaN (step rejected) and grown by 1.2 on acceptance, so the accepted-step
    train MSE is non-increasing by construction.  Returns the parameters with
    the best validation MSE; a fit in which no accepted step gives one raises
    TrainingError.  The split and the normalisation are drawn from every
    row; each split then fits its distinct rows once, weighted by their
    counts, so the objective is unchanged, on one preallocated workspace per
    split (``_FitSplit``).  The weights and
    the gradient are fit vectors, w1^T (C order), b1, w2^T and b2 end to end,
    so a candidate is one vector expression, w - lr * g, with the ops of the
    per-array steps; they go back to MlpParams' layout once, at the end.
    Fully reproducible for a fixed seed.
    """
    if len(dataset) < 50:
        raise DatasetError(f"dataset too small ({len(dataset)} rows, need >= 50)")
    if not dataset.attacked.any() or dataset.attacked.all():
        raise DatasetError("dataset must mix normal and attacked rows")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(dataset))
    n_train = max(1, int(round(len(dataset) * config.split)))
    tr, va = order[:n_train], order[n_train:]
    if va.size == 0:
        raise DatasetError("validation split is empty; lower the split fraction")
    x_tr, y_tr = dataset.x[tr], dataset.y[tr]
    x_va, y_va = dataset.x[va], dataset.y[va]

    norm = NormalizationSpec.from_data(x_tr, y_tr)
    params = init_params(rng, norm)
    report = TrainReport()
    fit = _FitSplit(norm.normalize_x(x_tr), y_tr, norm)
    val = _FitSplit(norm.normalize_x(x_va), y_va, norm)

    lr = config.learning_rate
    w = best = _fit_vector(params)
    loss = fit.loss(w)
    if not np.isfinite(loss):
        raise TrainingError("non-finite training loss at the initial weights")
    grads = fit.gradient()
    v_loss = val.loss(w)
    # a candidate that overflows is rejected like any other worse step
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs):
            cand = w - lr * grads
            cand_loss = fit.loss(cand)
            if accepted := cand_loss <= loss:   # a NaN candidate is rejected
                improvement = loss - cand_loss
                w, loss, grads = cand, cand_loss, fit.gradient()
                lr *= 1.2
                v_loss = val.loss(w)
            else:
                lr *= 0.5
            report.train_mse.append(loss)
            report.val_mse.append(v_loss)
            report.accepted.append(accepted)
            if accepted and v_loss < report.best_val_mse:
                report.best_val_mse = v_loss
                report.best_epoch = epoch
                best = w
            if accepted and improvement < config.tolerance:
                break
    if report.best_epoch < 0:
        raise TrainingError(
            f"no step improved the validation MSE in {len(report.train_mse)} epochs "
            f"({sum(report.accepted)} accepted); lower the learning rate")
    return MlpParams(*_fit_layers(best), norm), report


def feature_channels(channels: list[tuple[int, int, str]], dg: int) -> list[int]:
    """Indices in ``channels`` of DG ``dg``'s voltage triple: the voltage it
    sends itself, then those of its two in-neighbors by ascending DG."""
    inbound = sorted((s != dg, s, k) for k, (s, d, sig) in enumerate(channels)
                     if sig == "voltage" and d == dg)
    if len(inbound) != 3:
        raise ValueError(f"the ANN controller on DG{dg + 1} needs exactly 3 inbound voltage "
                         f"channels (its own and 2 in-neighbors'), got {len(inbound)}")
    return [k for *_, k in inbound]


def runtime_features(received_triple: np.ndarray, v_ref: float) -> np.ndarray:
    """Controller input vector with the received triple in both slots."""
    r = np.asarray(received_triple, dtype=float)
    if r.shape != (3,):
        raise ValueError("received triple must have length 3")
    return np.concatenate([r, r, [v_ref]])


class AnnKernel(_Forward):
    """``forward_batch`` on one runtime feature row, in buffers built once.

    ``positions`` holds each ``FEATURES`` column's position in the secondary
    layer's input x (``ConsensusMap.positions``).  ``ann_controller`` fills
    the row with one take from x, v* included, normalises it in place and
    runs ``_Forward`` on (1, .) buffers.  These are ``forward_batch``'s
    operations in its order, so the set-point is bit-equal to
    ``forward(runtime_features(r, v*))``.
    """

    def __init__(self, params: MlpParams, positions):
        super().__init__(1)
        self.idx = np.array([positions])
        self.row = np.empty((1, N_IN))
        self.x_offset = params.norm.x_offset[None, :]
        self.x_scale = params.norm.x_scale[None, :]
        self.w1t, self.b1 = params.w1.T, params.b1[None, :]
        self.w2t, self.b2 = params.w2.T, params.b2[None, :]
        self.y_scale, self.y_offset = float(params.norm.y_scale), float(params.norm.y_offset)
        self.xn = np.empty((1, N_IN))


def ann_controller(kernel: AnnKernel, x: np.ndarray) -> float:
    """Voltage set-point of the kernel's DG from the secondary layer's input
    ``x``, clamped to [0.5, 1.5] pu."""
    x.take(kernel.idx, out=kernel.row, mode="clip")   # in range: "clip" skips a copy
    xn = kernel.xn
    np.subtract(kernel.row, kernel.x_offset, xn)
    np.divide(xn, kernel.x_scale, xn)
    out = kernel.run(xn, kernel.w1t, kernel.b1, kernel.w2t, kernel.b2)
    y = out.item() * kernel.y_scale + kernel.y_offset
    return min(max(y, SETPOINT_MIN), SETPOINT_MAX)


def build_dataset(runs) -> Dataset:
    """Assemble (x, y) training pairs from recorded runs.

    ``runs`` is an iterable of (trace, clean_trace, scenario_id) where
    clean_trace is the matching no-attack baseline run (identical loads: its
    rows before the run's first attacked row are the run's, bit for bit; an
    attacked one is rejected); for a normal run trace is its own clean
    reference.  ``FEATURES`` is resolved for DG1 onto the trace: a received
    voltage onto its ``ch_recv`` column, v_ref onto ``trace.v_ref``.  Each
    sample gives a paired row, whose first triple reads ``ch_clean``, the
    source DGs' ``v`` columns, instead; an attacked run then adds the
    runtime row.  The first 0.1 s of every trace is discarded.
    """
    xs, ys, att = [], [], []
    for trace, clean_trace, scenario_id in runs:
        try:   # before any column is read
            col = dict(zip(TRIPLE, feature_channels(trace.channels, 0)))
            if (src := max(s for s, _, _ in trace.channels)) >= trace.n_dg:   # ch_clean reads it
                raise ValueError(f"channel source DG{src + 1} has no columns")
        except ValueError as exc:
            raise DatasetError(f"run {scenario_id}: {exc}") from None
        if clean_trace.n_dg != trace.n_dg:
            raise DatasetError(f"clean reference for {scenario_id} has {clean_trace.n_dg} DGs")
        target = clean_trace.dg["Vn"][:, 0]
        if len(target) != len(trace.t):
            raise DatasetError(
                f"clean reference for {scenario_id} has a different length")
        if trace.v_ref is None:
            raise DatasetError(f"trace {scenario_id} is missing the voltage reference")
        if clean_trace.attack_active.any():   # its V_n is not the clean target
            raise DatasetError(f"clean reference for {scenario_id} is an attacked run")
        is_attacked = bool(trace.attack_active.any())
        # until its attack begins a run is its clean reference, bit for bit
        before = int(np.argmax(trace.attack_active)) if is_attacked else len(trace.t)
        if (clean_trace is not trace
                and trace.data[:before].tobytes() != clean_trace.data[:before].tobytes()):
            k = next(k for k, (a, b) in enumerate(zip(trace.data, clean_trace.data))
                     if a.tobytes() != b.tobytes())
            raise DatasetError(f"clean reference for {scenario_id} differs from it before "
                               f"the attack, first at t={trace.t[k]:.6f}s")
        keep = trace.t >= 0.1 - 1e-12
        for first in (trace.ch_clean, trace.ch_recv)[:1 + is_attacked]:
            x = np.empty((np.count_nonzero(keep), N_IN))
            for j, name in enumerate(FEATURES):
                ch = first if j < len(TRIPLE) else trace.ch_recv
                x[:, j] = trace.v_ref if name == "v_ref" else ch[:, col[name]][keep]
            xs.append(x)
            ys.append(target[keep])
            att.append(np.full(len(x), is_attacked))
    if not xs:
        raise DatasetError("no runs supplied")
    return Dataset(x=np.vstack(xs), y=np.concatenate(ys), attacked=np.concatenate(att))


# -- model persistence: self-describing flat text, >= 17 significant digits --

# the first line: format name and version, then the layer widths
_MODEL_HEADER = f"mgres-mlp 1 {N_IN} {N_HIDDEN} 1"
# the value rows after the header, in file order, and the shape each is read into
_MODEL_ROWS = {"w1": (N_HIDDEN, N_IN), "b1": (N_HIDDEN,), "w2": (1, N_HIDDEN), "b2": (1,),
               "x_offset": (N_IN,), "x_scale": (N_IN,), "y_offset": (), "y_scale": ()}


def save_model(params: MlpParams, path) -> None:
    values = vars(params) | vars(params.norm)   # each row's value by its name
    lines = [_MODEL_HEADER] + [" ".join(format(v, ".17g") for v in np.ravel(values[name]))
                               for name in _MODEL_ROWS]
    write_text(path, "\n".join(lines) + "\n")


def load_model(path) -> MlpParams:
    """The model in the file ``path``; a file that cannot be read or holds no
    valid model raises a ValueError of one line that names it."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except FileNotFoundError:
        raise ValueError(f"ANN model file not found: {path}") from None
    except OSError as exc:   # a directory, unreadable
        raise ValueError(f"cannot read model file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"model file {path} is not text: {exc}") from None
    if not lines:
        raise ValueError(f"model file {path} is empty")
    if lines[0].split() != _MODEL_HEADER.split():
        raise ValueError(f"unrecognized model header: {lines[0]!r}")
    if len(lines) - 1 != len(_MODEL_ROWS):
        raise ValueError(f"model file has {len(lines) - 1} value rows, expected {len(_MODEL_ROWS)}")
    vals = {}
    for k, (ln, (name, shape)) in enumerate(zip(lines[1:], _MODEL_ROWS.items()), start=1):
        try:
            row = np.array([float(v) for v in ln.split()])
        except ValueError as exc:
            raise ValueError(f"model file {path}: value row {k}: {exc}") from None
        if len(row) != math.prod(shape):
            raise ValueError(f"model file {path}: value row {k} ({name}) has "
                             f"{len(row)} values, expected {math.prod(shape)}")
        vals[name] = row.reshape(shape) if shape else float(row[0])
    try:
        norm = NormalizationSpec(*(vals.pop(f.name) for f in fields(NormalizationSpec)))
        return MlpParams(**vals, norm=norm)
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from None
