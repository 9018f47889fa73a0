"""Resilient secondary voltage controller: a 7-10-1 regression network.

Feature layout for DG1 (attacked DG): x = [v11, v12, v14, vh11, vh12, vh14, v*]
with the clean triple first and the received (possibly corrupted) triple
second.  At runtime the clean triple is unobservable, so the controller feeds
the received values into both slots; training therefore includes
duplicated-triple rows for attacked runs so the two distributions match.

Hidden layer: 10 units with tansig = 2/(1+exp(-2z)) - 1 (the hyperbolic
tangent); output layer: purelin (affine).  Trained offline by full-batch
gradient descent with backtracking step control.  The fit runs on rows
normalised once per fit, in a workspace of buffers allocated once per split;
its loss is bit-equal to ``mse``, the inference path's (``forward_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

N_IN = 7
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def forward_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Network output for a batch of rows, in raw target units."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != N_IN:
        raise ValueError(f"expected (N, {N_IN}) input, got {x.shape}")
    xn = params.norm.normalize_x(x)
    h = tansig(xn @ params.w1.T + params.b1)
    out = h @ params.w2.T + params.b2
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


class _FitSplit:
    """One split of a fit: rows normalised once, and the kernel's temporaries.

    ``loss(w)`` is the forward pass of ``forward_batch`` and ``mse`` for the
    weights w = (w1, b1, w2, b2), the same operations in the same order but
    written into buffers allocated once, so it is bit-equal to ``mse`` on the
    raw rows.  ``gradient()`` is the backward pass for the weights of the
    last ``loss`` call, which left tansig(a1) and the residual in ``h``/``r``.
    """

    def __init__(self, xn: np.ndarray, y: np.ndarray, norm: NormalizationSpec):
        n = xn.shape[0]
        self.xn, self.y, self.norm = xn, y, norm
        self.w2 = None
        self.h = np.empty((n, N_HIDDEN))   # a1, then tansig(a1), then 1 - h^2
        self.d = np.empty((n, N_HIDDEN))   # d_h, then d_a1
        self.out = np.empty((n, 1))
        self.r = np.empty(n)               # residual, then d_out
        self.r2 = np.empty(n)

    def loss(self, w: tuple) -> float:
        w1, b1, self.w2, b2 = w
        h, r = self.h, self.r
        np.matmul(self.xn, w1.T, out=h)
        h += b1
        np.tanh(h, out=h)                  # tansig
        np.matmul(h, self.w2.T, out=self.out)
        self.out += b2
        np.multiply(self.out[:, 0], self.norm.y_scale, out=r)
        r += self.norm.y_offset
        r -= self.y
        return float(np.mean(np.multiply(r, r, out=self.r2)))

    def gradient(self) -> tuple:
        h, r = self.h, self.r
        r *= 2.0 / len(r)                  # d_out = (2 / N) * r * y_scale
        r *= self.norm.y_scale
        g_w2 = (r @ h)[None, :]
        g_b2 = np.array([r.sum()])
        d = np.multiply(r[:, None], self.w2, out=self.d)
        h *= h
        np.subtract(1.0, h, out=h)
        d *= h
        # column sums in row order, the order of d.sum(axis=0), at a fifth of its cost
        return d.T @ self.xn, np.einsum("ij->j", d), g_w2, g_b2


def gradient(params: MlpParams, x: np.ndarray, y: np.ndarray):
    """Analytic gradient of the batch MSE w.r.t. (w1, b1, w2, b2).

    Loss is L = (1/N) sum (forward(x) - y)^2 in raw target units.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("gradient needs a non-empty batch")
    split = _FitSplit(params.norm.normalize_x(x), y, params.norm)
    split.loss((params.w1, params.b1, params.w2, params.b2))
    return split.gradient()


@dataclass
class Dataset:
    x: np.ndarray            # (N, 7)
    y: np.ndarray            # (N,)
    scenario: list[str]      # provenance per row
    t: np.ndarray            # sample time per row, s
    attacked: np.ndarray     # bool per row

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
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
        if self.max_epochs < 1 or not self.learning_rate > 0:
            raise ValueError("max_epochs >= 1 and learning_rate > 0 required")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, d, **defaults) -> "TrainConfig":
        """Config from a YAML mapping laid over ``defaults``; each value is
        converted to its field's type and unknown keys are errors.  A bool is
        no value of any field, and an int field takes no fractional value."""
        if not isinstance(d, dict):
            raise ValueError(f"training config must be a mapping, got {type(d).__name__}")
        kinds = {f.name: type(f.default) for f in fields(cls)}
        unknown = set(d) - set(kinds)
        if unknown:
            raise ValueError(f"unknown training config fields: {sorted(map(str, unknown))}")
        values = dict(defaults)
        for k, v in d.items():
            kind = kinds[k]
            try:
                if isinstance(v, bool) or (
                        kind is int and isinstance(v, float) and not v.is_integer()):
                    raise ValueError
                values[k] = kind(v)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"training config field {k!r} must be "
                                 f"{kinds[k].__name__}, got {v!r}") from None
        return cls(**values)


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
    TrainingError.  Both splits are normalised once and every epoch runs on
    one preallocated workspace per split.  Fully reproducible for a fixed seed.
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
    w = best = (params.w1, params.b1, params.w2, params.b2)
    loss = fit.loss(w)
    if not np.isfinite(loss):
        raise TrainingError("non-finite training loss at the initial weights")
    grads = fit.gradient()
    v_loss = val.loss(w)
    # a candidate that overflows is rejected like any other worse step
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs):
            cand = tuple(p - lr * g for p, g in zip(w, grads))
            cand_loss = fit.loss(cand)
            if not cand_loss <= loss:   # a NaN candidate is rejected too
                lr *= 0.5
                report.train_mse.append(loss)
                report.val_mse.append(v_loss)
                report.accepted.append(False)
                continue
            improvement = loss - cand_loss
            w, loss, grads = cand, cand_loss, fit.gradient()
            lr *= 1.2
            v_loss = val.loss(w)
            report.train_mse.append(loss)
            report.val_mse.append(v_loss)
            report.accepted.append(True)
            if v_loss < report.best_val_mse:
                report.best_val_mse = v_loss
                report.best_epoch = epoch
                best = w
            if improvement < config.tolerance:
                break
    if report.best_epoch < 0:
        raise TrainingError(
            f"no step improved the validation MSE in {len(report.train_mse)} epochs "
            f"({sum(report.accepted)} accepted); lower the learning rate")
    return MlpParams(*best, norm), report


def runtime_features(received_triple: np.ndarray, v_ref: float) -> np.ndarray:
    """Controller input vector with the received triple in both slots."""
    r = np.asarray(received_triple, dtype=float)
    if r.shape != (3,):
        raise ValueError("received triple must have length 3")
    return np.concatenate([r, r, [v_ref]])


class AnnKernel:
    """``forward_batch`` on one runtime feature row, in buffers built once per run.

    The row [r, r, v*] of one controlled DG is preallocated with v* in its
    last column; ``ann_controller`` fills [r, r] with one take from the
    channel vector and runs normalisation, both layers and tansig in place on
    (1, .) buffers.  These are ``forward_batch``'s operations in its order,
    so the set-point is bit-equal to ``forward(runtime_features(r, v*))``.
    """

    def __init__(self, params: MlpParams, v_ref: float, triple):
        self.take = np.array(list(triple) * 2, dtype=int)
        if self.take.shape != (6,):
            raise ValueError("received triple must have length 3")
        self.row = np.empty((1, N_IN))
        self.row[0, 6] = v_ref
        self.rr = self.row[0, :6]
        self.x_offset = params.norm.x_offset[None, :]
        self.x_scale = params.norm.x_scale[None, :]
        self.w1t, self.b1 = params.w1.T, params.b1[None, :]
        self.w2t, self.b2 = params.w2.T, params.b2[None, :]
        self.y_scale, self.y_offset = float(params.norm.y_scale), float(params.norm.y_offset)
        self.xn = np.empty((1, N_IN))
        self.h = np.empty((1, N_HIDDEN))
        self.out = np.empty((1, 1))


def ann_controller(kernel: AnnKernel, x: np.ndarray) -> float:
    """Voltage set-point for the attacked DG from the received triple at
    ``x[triple]``, clamped to [0.5, 1.5] pu."""
    x.take(kernel.take, out=kernel.rr)
    xn, h, out = kernel.xn, kernel.h, kernel.out
    np.subtract(kernel.row, kernel.x_offset, xn)
    np.divide(xn, kernel.x_scale, xn)
    np.matmul(xn, kernel.w1t, h)
    np.add(h, kernel.b1, h)
    np.tanh(h, h)                       # tansig
    np.matmul(h, kernel.w2t, out)
    np.add(out, kernel.b2, out)
    y = out.item() * kernel.y_scale + kernel.y_offset
    return min(max(y, SETPOINT_MIN), SETPOINT_MAX)


def build_dataset(runs) -> Dataset:
    """Assemble (x, y) training pairs from recorded runs.

    ``runs`` is an iterable of (trace, clean_trace, scenario_id) where
    clean_trace is the matching no-attack baseline run (identical loads);
    for a normal run trace is its own clean reference.  One paired row
    per sample x = [clean triple, received triple, v*]; attacked runs
    additionally contribute a duplicated-triple row matching the runtime
    feature layout.  The first 0.1 s of every trace is discarded.
    """
    from .trace import dg1_voltage_triple  # local import avoids a cycle

    xs, ys, scen, ts, att = [], [], [], [], []
    for trace, clean_trace, scenario_id in runs:
        clean, recv = dg1_voltage_triple(trace)
        target = clean_trace.dg["Vn"][:, 0]
        if len(target) != len(trace.t):
            raise DatasetError(
                f"clean reference for {scenario_id} has a different length")
        keep = trace.t >= 0.1 - 1e-12
        v_ref = np.full(keep.sum(), trace_v_ref(trace))
        is_attacked = bool(trace.attack_active.any())
        paired = np.column_stack([clean[keep], recv[keep], v_ref])
        xs.append(paired)
        ys.append(target[keep])
        scen.extend([scenario_id] * keep.sum())
        ts.append(trace.t[keep])
        att.append(np.full(keep.sum(), is_attacked))
        if is_attacked:
            dup = np.column_stack([recv[keep], recv[keep], v_ref])
            xs.append(dup)
            ys.append(target[keep])
            scen.extend([scenario_id + "+runtime"] * keep.sum())
            ts.append(trace.t[keep])
            att.append(np.full(keep.sum(), True))
    if not xs:
        raise DatasetError("no runs supplied")
    return Dataset(x=np.vstack(xs), y=np.concatenate(ys), scenario=scen,
                   t=np.concatenate(ts), attacked=np.concatenate(att))


def trace_v_ref(trace) -> float:
    if trace.v_ref is None:
        raise DatasetError("trace is missing the voltage reference")
    return float(trace.v_ref)


# -- model persistence: self-describing flat text, >= 17 significant digits --

# the value rows after the header, in file order, and their lengths
_MODEL_ROWS = {"w1": N_HIDDEN * N_IN, "b1": N_HIDDEN, "w2": N_HIDDEN, "b2": 1,
               "x_offset": N_IN, "x_scale": N_IN, "y_offset": 1, "y_scale": 1}


def save_model(params: MlpParams, path) -> None:
    lines = [f"mgres-mlp 1 {N_IN} {N_HIDDEN} 1"]
    for arr in (params.w1, params.b1, params.w2, params.b2,
                params.norm.x_offset, params.norm.x_scale,
                np.array([params.norm.y_offset]), np.array([params.norm.y_scale])):
        lines.append(" ".join(format(v, ".17g") for v in np.ravel(arr)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MlpParams:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"model file {path} is empty")
    header = lines[0].split()
    if header[:2] != ["mgres-mlp", "1"] or header[2:] != [str(N_IN), str(N_HIDDEN), "1"]:
        raise ValueError(f"unrecognized model header: {lines[0]!r}")
    vals = []
    for k, ln in enumerate(lines[1:], start=1):
        try:
            vals.append(np.array([float(v) for v in ln.split()]))
        except ValueError as exc:
            raise ValueError(f"model file {path}: value row {k}: {exc}") from None
    if len(vals) != 8:
        raise ValueError(f"model file has {len(vals)} value rows, expected 8")
    for k, (name, row) in enumerate(zip(_MODEL_ROWS, vals), start=1):
        if len(row) != _MODEL_ROWS[name]:
            raise ValueError(f"model file {path}: value row {k} ({name}) has "
                             f"{len(row)} values, expected {_MODEL_ROWS[name]}")
    try:
        norm = NormalizationSpec(vals[4], vals[5], float(vals[6][0]), float(vals[7][0]))
        return MlpParams(w1=vals[0].reshape(N_HIDDEN, N_IN), b1=vals[1],
                         w2=vals[2].reshape(1, N_HIDDEN), b2=vals[3], norm=norm)
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from None
