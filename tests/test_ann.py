from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgres import ann
from mgres.ann import (FEATURES, AnnKernel, Dataset, DatasetError, MlpParams,
                       NormalizationSpec, TrainConfig, TrainingError, ann_controller,
                       build_dataset, init_params, load_model, save_model, train)
from mgres.datagen import gen_data, load_runs
from mgres.graph import ring_graph
from mgres.scenario import ConfigReader, builtin_scenario
from mgres.secondary import ConsensusMap, SecondaryGains
from mgres.simulate import run_scenario
from mgres.trace import Trace
from reference import UNIT_NORM, forward_batch, gradient, mse


def tansig(z):
    """The hidden activation at z, read through the forward pass of a model
    with one unit: it sees the first input, and the output is that unit."""
    w1, w2 = np.zeros((10, 7)), np.zeros((1, 10))
    w1[0, 0] = w2[0, 0] = 1.0
    params = MlpParams(w1, np.zeros(10), w2, np.zeros(1), UNIT_NORM)
    x = np.zeros((np.size(z), 7))
    x[:, 0] = z
    out = forward_batch(params, x)
    return out if np.ndim(z) else out[0]


def test_tansig_is_tanh():
    # 2/(1+exp(-2z)) - 1 evaluated independently
    z = 0.5
    assert tansig(z) == pytest.approx(2.0 / (1.0 + np.exp(-1.0)) - 1.0, abs=1e-15)
    assert tansig(0.5) == pytest.approx(0.46211715726000974, abs=1e-16)
    assert tansig(0.0) == 0.0
    np.testing.assert_allclose(tansig(np.array([-30.0, 30.0])), [-1.0, 1.0])


def test_forward_matches_hand_computation():
    rng = np.random.default_rng(1)
    params = init_params(rng, UNIT_NORM)
    x = rng.uniform(-1, 1, 7)
    h = np.tanh(params.w1 @ x + params.b1)
    expect = float((params.w2 @ h + params.b2)[0])
    assert forward_batch(params, x[None, :])[0] == pytest.approx(expect, rel=1e-12)


def test_forward_respects_normalization():
    norm = NormalizationSpec(x_offset=np.full(7, 1.0), x_scale=np.full(7, 0.5),
                             y_offset=2.0, y_scale=3.0)
    raw = init_params(np.random.default_rng(2), UNIT_NORM)
    params = MlpParams(raw.w1, raw.b1, raw.w2, raw.b2, norm)
    x = np.full(7, 1.25)
    xn = (x - 1.0) / 0.5
    inner = float((raw.w2 @ np.tanh(raw.w1 @ xn + raw.b1) + raw.b2)[0])
    assert forward_batch(params, x[None, :])[0] == pytest.approx(inner * 3.0 + 2.0, rel=1e-12)


def test_shape_validation():
    rng = np.random.default_rng(0)
    params = init_params(rng, UNIT_NORM)
    with pytest.raises(ValueError):
        forward_batch(params, np.zeros((3, 8)))
    with pytest.raises(ValueError):
        MlpParams(np.zeros((9, 7)), np.zeros(10), np.zeros((1, 10)), np.zeros(1), UNIT_NORM)
    with pytest.raises(ValueError, match="gradient needs a non-empty batch"):
        gradient(params, np.zeros((0, 7)), np.zeros(0))


def test_init_is_seeded_and_bounded():
    a = init_params(np.random.default_rng(5), UNIT_NORM)
    b = init_params(np.random.default_rng(5), UNIT_NORM)
    c = init_params(np.random.default_rng(6), UNIT_NORM)
    np.testing.assert_array_equal(a.w1, b.w1)
    assert not np.array_equal(a.w1, c.w1)
    assert np.abs(a.w1).max() <= 1.0 / np.sqrt(7)
    assert np.abs(a.w2).max() <= 1.0 / np.sqrt(10)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    params = init_params(rng, UNIT_NORM)
    x = rng.uniform(-1, 1, (16, 7))
    y = rng.uniform(-1, 1, 16)
    grads = gradient(params, x, y)
    eps = 1e-6
    for name, g in zip(("w1", "b1", "w2", "b2"), grads):
        arr = getattr(params, name)
        it = np.ndindex(arr.shape)
        for idx in list(it)[:5]:  # spot-check a few entries per tensor
            d = dict(w1=params.w1.copy(), b1=params.b1.copy(),
                     w2=params.w2.copy(), b2=params.b2.copy())
            d[name][idx] += eps
            hi = mse(MlpParams(d["w1"], d["b1"], d["w2"], d["b2"], params.norm), x, y)
            d[name][idx] -= 2 * eps
            lo = mse(MlpParams(d["w1"], d["b1"], d["w2"], d["b2"], params.norm), x, y)
            assert g[idx] == pytest.approx((hi - lo) / (2 * eps), abs=1e-6)


def reference_fit(params: MlpParams, x: np.ndarray, y: np.ndarray, every=slice(None)):
    """(MSE, gradient) of the batch as plain NumPy expressions, in the fit
    kernel's order of operations.  The forward pass runs on the rows of x;
    the batch is then the rows ``every`` picks from them."""
    norm = params.norm
    xn = (x - norm.x_offset) / norm.x_scale
    h = np.tanh(xn @ params.w1.T + params.b1)
    r = (h @ params.w2.T + params.b2)[:, 0] * norm.y_scale + norm.y_offset - y
    xn, h, r = xn[every], h[every], r[every]
    d_out = (2.0 / len(r)) * r * norm.y_scale
    d_a1 = d_out[:, None] * params.w2 * (1.0 - h * h)
    return np.mean(r * r), (d_a1.T @ xn, d_a1.sum(axis=0), (d_out @ h)[None, :],
                            np.array([d_out.sum()]))


def test_gradient_is_the_reference_arithmetic_bitwise():
    # the fit kernel writes into buffers and sums columns with einsum; the
    # plain expressions, in the same order, are its reference bit for bit
    rng = np.random.default_rng(4)
    x = rng.uniform(0.9, 1.1, (500, 7))
    y = rng.uniform(1.0, 1.05, 500)
    params = init_params(rng, NormalizationSpec.from_data(x, y))
    for got, ref in zip(gradient(params, x, y), reference_fit(params, x, y)[1]):
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("n", [1, 3389, 9000])
def test_fit_split_is_the_reference_arithmetic_bitwise(n):
    # at the fit's row counts BLAS blocks its products, and one row takes
    # numpy's matrix-vector path, whose bits depend on the layout of w1^T;
    # the fit vector's layouts must still give the plain expressions' bits
    rng = np.random.default_rng(5)
    x = rng.uniform(0.9, 1.1, (n, 7))
    y = rng.uniform(1.0, 1.05, n)
    params = init_params(rng, NormalizationSpec.from_data(rng.uniform(0.9, 1.1, (50, 7)),
                                                          rng.uniform(1.0, 1.05, 50)))
    split = ann._FitSplit(params.norm.normalize_x(x), y, params.norm)
    assert split.loss(ann._fit_vector(params)) == mse(params, x, y)
    for got, ref in zip(ann._fit_layers(split.gradient()), reference_fit(params, x, y)[1]):
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got, ref)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=40), st.integers(0, 2**32 - 1))
def test_counted_rows_are_the_expanded_rows(counts, seed):
    # a split fits its distinct rows once, each weighted by its count; the
    # loss and gradient are those of every row, to the summation's rounding.
    # The reference runs the forward pass on the distinct rows, as the split
    # does: a row's forward bits may depend on the batch it is in
    rng = np.random.default_rng(seed)
    distinct = rng.uniform(0.9, 1.1, (len(counts), 8))   # x, then y
    which = np.repeat(np.arange(len(counts)), counts)[rng.permutation(sum(counts))]
    x, y = distinct[which, :7], distinct[which, 7]
    params = init_params(rng, NormalizationSpec.from_data(x, y))
    split = ann._FitSplit(params.norm.normalize_x(x), y, params.norm)
    kept = list(dict.fromkeys(which))              # in order of first occurrence
    np.testing.assert_array_equal(split.y, distinct[kept, 7])
    np.testing.assert_array_equal(split.c, np.array(counts)[kept])
    every = [kept.index(k) for k in which]   # each row's kept slot
    loss, want = reference_fit(params, distinct[kept, :7], distinct[kept, 7], every)
    assert split.loss(ann._fit_vector(params)) == pytest.approx(loss, rel=1e-15, abs=0)
    scale = max(np.abs(ref).max() for ref in want)   # a sum that cancels has no relative error
    for got, ref in zip(ann._fit_layers(split.gradient()), want):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * scale)


def test_normalization_from_data():
    x = np.zeros((4, 7))
    x[:, 0] = [0.0, 1.0, 2.0, 3.0]
    y = np.array([1.0, 3.0, 2.0, 1.0])
    norm = NormalizationSpec.from_data(x, y)
    assert norm.x_offset[0] == 1.5 and norm.x_scale[0] == 1.5
    assert norm.x_scale[1] == 1.0  # constant column falls back to unit scale
    xn = norm.normalize_x(x)
    assert xn[:, 0].min() == -1.0 and xn[:, 0].max() == 1.0
    assert (3.0 - norm.y_offset) / norm.y_scale == 1.0
    assert (1.0 - norm.y_offset) / norm.y_scale == -1.0
    assert (2.2 - norm.y_offset) / norm.y_scale * norm.y_scale + norm.y_offset \
        == pytest.approx(2.2)


def synth_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.9, 1.1, (n, 7))
    y = 0.5 * x[:, 0] + 0.3 * x[:, 3] + 0.2
    attacked = np.zeros(n, dtype=bool)
    attacked[n // 2:] = True
    return Dataset(x=x, y=y, attacked=attacked)


def test_train_learns_and_is_reproducible():
    ds = synth_dataset()
    cfg = TrainConfig(max_epochs=300, seed=1)
    p1, r1 = train(ds, cfg)
    p2, r2 = train(ds, cfg)
    np.testing.assert_array_equal(p1.w1, p2.w1)
    assert p1.w1.flags.c_contiguous   # as load_model gives it: one-row products differ by layout
    assert r1.train_mse == r2.train_mse
    assert r1.best_val_mse < r1.val_mse[0]
    assert r1.best_val_mse < 1e-5
    # accepted-step train MSE never increases
    acc = [m for m, a in zip(r1.train_mse, r1.accepted) if a]
    assert all(b <= a + 1e-15 for a, b in zip(acc, acc[1:]))


@pytest.fixture(scope="module")
def gen_dataset(tmp_path_factory):
    """The dataset of test_golden's small gen-data matrix: its attacked runs
    repeat their clean runs' rows up to the onset."""
    from test_golden import GEN_MATRIX
    work = tmp_path_factory.mktemp("gen-data")
    gen_data(str(work), GEN_MATRIX)
    return build_dataset(load_runs(str(work)))


def test_best_val_mse_is_the_inference_mse(gen_dataset):
    # the fit kernel's forward half must not drift from forward_batch: bit for
    # bit on rows without copies, to the summation's rounding on counted rows
    rows = np.column_stack([gen_dataset.x, gen_dataset.y])
    assert len(np.unique(rows, axis=0)) < 0.8 * len(rows)
    for ds, rtol, seeds in ((synth_dataset(), 0, (1, 2)), (gen_dataset, 1e-12, (0, 1))):
        for seed in seeds:
            cfg = TrainConfig(max_epochs=300, seed=seed)
            params, report = train(ds, cfg)
            order = np.random.default_rng(seed).permutation(len(ds))
            va = order[int(round(len(ds) * cfg.split)):]
            assert report.best_val_mse == pytest.approx(mse(params, ds.x[va], ds.y[va]),
                                                        rel=rtol, abs=0)
            assert report.best_val_mse == report.val_mse[report.best_epoch]


def test_nan_candidate_is_rejected():
    # at this step size the first candidate's weights overflow and its train
    # MSE is NaN, which `cand_loss > loss` would have accepted
    ds = synth_dataset()
    ds.y *= 1e3
    params, report = train(ds, TrainConfig(learning_rate=1e305, max_epochs=1100))
    assert not report.accepted[0]
    assert report.train_mse[1] == report.train_mse[0]
    assert any(report.accepted) and np.isfinite(report.train_mse).all()
    assert np.isfinite(report.best_val_mse) and np.isfinite(params.w1).all()


def test_fit_without_an_accepted_step_raises():
    # every candidate overflows, so the untrained weights would be returned
    with pytest.raises(TrainingError, match="no step improved the validation MSE in 50 epochs"):
        train(synth_dataset(), TrainConfig(learning_rate=1e300, max_epochs=50))


def train_config(d, **defaults) -> TrainConfig:
    return ConfigReader(d, "training config").build(TrainConfig, **defaults)


def test_train_config_from_dict():
    tc = train_config({"learning_rate": "0.1", "max_epochs": 40}, seed=3)
    assert tc == TrainConfig(learning_rate=0.1, max_epochs=40, seed=3)
    assert train_config({"seed": 5}, seed=3).seed == 5
    assert train_config({}) == TrainConfig()
    with pytest.raises(ValueError, match=r"unknown training config fields: \['learning_rat'\]"):
        train_config({"learning_rat": 0.1})
    with pytest.raises(ValueError, match=r"unknown training config fields: \['1', 'a'\]"):
        train_config({1: 2, "a": 3})
    with pytest.raises(ValueError, match=r"must be a mapping, got \[\{'learning_rate': 0.1\}\]"):
        train_config([{"learning_rate": 0.1}])
    with pytest.raises(ValueError, match="'max_epochs' in training config must be a whole number, "
                                         "got None"):
        train_config({"max_epochs": None})
    with pytest.raises(ValueError, match="learning_rate > 0"):
        train_config({"learning_rate": float("nan")})
    # int(v) would train 2 epochs for 2.7 and 1 for true; a bool is no float either
    assert train_config({"max_epochs": 40.0, "seed": 2.0}) == TrainConfig(max_epochs=40, seed=2)
    for field, value, kind in (("max_epochs", 2.7, "a whole number"),
                               ("max_epochs", True, "a whole number"),
                               ("seed", 0.5, "a whole number"), ("seed", False, "a whole number"),
                               ("max_epochs", float("inf"), "a whole number"),
                               ("learning_rate", True, "a number"),
                               ("learning_rate", 10 ** 400, "a number")):
        with pytest.raises(ValueError, match=f"'{field}' in training config must be {kind}, "
                                             f"got {value!r}"):
            train_config({field: value})
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        train_config({"seed": -1})
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        train_config({}, seed=-3)


def test_train_input_validation():
    with pytest.raises(DatasetError, match="too small"):
        train(synth_dataset(n=40), TrainConfig())
    ds = synth_dataset()
    ds.attacked[:] = False
    with pytest.raises(DatasetError, match="mix"):
        train(ds, TrainConfig())
    with pytest.raises(DatasetError, match="non-finite"):
        x = np.ones((60, 7))
        x[0, 0] = np.nan
        Dataset(x=x, y=np.ones(60), attacked=np.ones(60, dtype=bool))
    with pytest.raises(DatasetError, match=r"inconsistent dataset shapes \(60, 7\) / \(59,\)"):
        Dataset(x=np.ones((60, 7)), y=np.ones(59), attacked=np.ones(60, dtype=bool))
    for split in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"split must be in \(0, 1\)"):
            TrainConfig(split=split)
    with pytest.raises(DatasetError, match="validation split is empty"):
        train(synth_dataset(n=50), TrainConfig(split=0.99))
    huge = synth_dataset()
    huge.y[:] = np.where(np.arange(len(huge)) % 2, 1e200, -1e200)
    with np.errstate(over="ignore"), pytest.raises(
            TrainingError, match="non-finite training loss at the initial weights"):
        train(huge, TrainConfig())


def test_runtime_features_and_clamp():
    # force huge outputs through the denormalization to hit both clamps
    raw = init_params(np.random.default_rng(0), UNIT_NORM)
    hi = MlpParams(raw.w1, raw.b1, raw.w2, raw.b2,
                   NormalizationSpec(np.zeros(7), np.ones(7), 100.0, 1.0))
    lo = MlpParams(raw.w1, raw.b1, raw.w2, raw.b2,
                   NormalizationSpec(np.zeros(7), np.ones(7), -100.0, 1.0))
    g = ring_graph(4)
    cmap = ConsensusMap(g, g.channels(), SecondaryGains(), 1.0, 377.0, 1e-4)
    cmap.recv[:] = 1.0
    # the runtime row: DG1's received triple (its own, DG2's, DG4's) twice, then v*
    for src, value in ((0, 1.0), (1, 1.1), (3, 1.2)):
        cmap.recv[g.channels().index((src, 0, "voltage"))] = value
    at = cmap.positions(FEATURES, 0)
    kernel = AnnKernel(hi, at)
    assert ann_controller(kernel, cmap.x) == 1.5
    np.testing.assert_array_equal(kernel.row[0], [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0])
    assert ann_controller(AnnKernel(lo, at), cmap.x) == 0.5
    two = [ch for ch in g.channels() if ch != (1, 0, "voltage")]
    with pytest.raises(ValueError, match="DG1 needs exactly 3"):
        ConsensusMap(g, two, SecondaryGains(), 1.0, 377.0, 1e-4).positions(FEATURES, 0)


def test_controller_is_forward_on_runtime_features_bitwise():
    # ann_controller runs forward_batch's operations on one kernel's buffers
    # and skips its checks; the checked path is its reference, bit for bit,
    # on the row [r, r, v*], also when one kernel is reused call after call
    rng = np.random.default_rng(5)
    x = rng.uniform(0.9, 1.1, (200, 7))
    params = init_params(rng, NormalizationSpec.from_data(x, rng.uniform(1.0, 1.05, 200)))
    # the map's channels in a shuffled order: DG1's triple is its own voltage,
    # then DG2's and DG4's, wherever they sit in x
    g = ring_graph(4)
    layout = [g.channels()[k] for k in rng.permutation(len(g.channels()))]
    triple = [layout.index((s, 0, "voltage")) for s in (0, 1, 3)]
    cmap = ConsensusMap(g, layout, SecondaryGains(), 1.02, 377.0, 1e-4)
    kernel = AnnKernel(params, cmap.positions(FEATURES, 0))
    for channels in rng.uniform(0.8, 1.6, (300, len(layout))):
        cmap.recv[:] = channels
        cmap.droop[:] = rng.uniform(-1.0, 1.0, cmap.droop.shape)   # read by no feature
        r = channels[triple]
        want = min(max(forward_batch(params, np.concatenate([r, r, [1.02]])[None, :])[0],
                       0.5), 1.5)
        assert ann_controller(kernel, cmap.x) == want
        assert ann_controller(AnnKernel(params, cmap.positions(FEATURES, 0)), cmap.x) == want


def test_model_round_trip_is_exact(tmp_path):
    params = init_params(np.random.default_rng(11), UNIT_NORM)
    path = tmp_path / "model.txt"
    save_model(params, path)
    back = load_model(path)
    np.testing.assert_array_equal(params.w1, back.w1)
    np.testing.assert_array_equal(params.b1, back.b1)
    np.testing.assert_array_equal(params.w2, back.w2)
    np.testing.assert_array_equal(params.b2, back.b2)
    np.testing.assert_array_equal(params.norm.x_offset, back.norm.x_offset)
    assert params.norm.y_scale == back.norm.y_scale
    assert path.read_text().splitlines()[0] == "mgres-mlp 1 7 10 1"


def test_model_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not-a-model 1 7 10 1\n")
    with pytest.raises(ValueError, match="header"):
        load_model(path)
    path.write_text("mgres-mlp 1 7 10 1\n1 2 3\n")
    with pytest.raises(ValueError, match="value rows"):
        load_model(path)
    path.write_text("\n  \n")
    with pytest.raises(ValueError, match="bad.txt is empty"):
        load_model(path)


def model_text_with(row: int, values: str) -> str:
    """A valid model file's text with value row ``row`` (w1 is 1) replaced."""
    lines = []
    params = init_params(np.random.default_rng(2), UNIT_NORM)
    for arr in (params.w1, params.b1, params.w2, params.b2, params.norm.x_offset,
                params.norm.x_scale, [params.norm.y_offset], [params.norm.y_scale]):
        lines.append(" ".join(format(v, ".17g") for v in np.ravel(arr)))
    lines[row - 1] = values
    return "mgres-mlp 1 7 10 1\n" + "\n".join(lines) + "\n"


@pytest.mark.parametrize("row, values, message", [
    (1, "1 2 3 4 5", r"bad.txt: value row 1 \(w1\) has 5 values, expected 70"),
    (3, "0.5", r"bad.txt: value row 3 \(w2\) has 1 values, expected 10"),
    (8, "1 1", r"bad.txt: value row 8 \(y_scale\) has 2 values, expected 1"),
    (6, "1 1 nan 1 1 1 1", "bad.txt: normalization x_scale contains non-finite"),
    (5, "0 0 0 inf 0 0 0", "bad.txt: normalization x_offset contains non-finite"),
    (7, "nan", "bad.txt: normalization y_offset contains non-finite"),
    (8, "-inf", "bad.txt: normalization y_scale contains non-finite"),
    (2, "0 0 0 0 nan 0 0 0 0 0", "bad.txt: b1 contains non-finite"),
    (4, "abc", "bad.txt: value row 4: could not convert string to float: 'abc'"),
])
def test_malformed_model_rows_name_the_file_and_row(tmp_path, row, values, message):
    path = tmp_path / "bad.txt"
    path.write_text(model_text_with(row, values))
    with pytest.raises(ValueError, match=message):
        load_model(path)


TOKEN = st.text(max_size=4) | st.sampled_from(
    ["", "nan", "inf", "-inf", "1e999", "0", "-0", "1_0", "0x1p3", "mgres-mlp", "7", "10"])
MODEL_EDIT = st.tuples(st.sampled_from(["token", "drop-token", "dup-token", "drop-row",
                                        "dup-row"]),
                       st.integers(0, 8), st.integers(0, 69), TOKEN)


@settings(deadline=None, max_examples=300)
@given(st.lists(MODEL_EDIT, min_size=1, max_size=3))
def test_load_model_raises_only_value_errors(tmp_path_factory, edits):
    # a valid model text with tokens, rows or the header edited, dropped or
    # duplicated; only ValueError escapes, which the CLI turns into exit 1
    rows = [ln.split(" ") for ln in model_text_with(1, " ".join(["0.25"] * 70)).splitlines()]
    for kind, row, k, token in edits:
        line = rows[row % len(rows)] if rows else []
        if kind == "drop-row" and rows:
            rows.remove(line)
        elif kind == "dup-row" and rows:
            rows.insert(row % len(rows), list(line))
        elif line:
            k %= len(line)
            if kind == "token":
                line[k] = token
            elif kind == "drop-token":
                del line[k]
            else:
                line.insert(k, line[k])
    path = tmp_path_factory.mktemp("model") / "fuzz.txt"
    path.write_text("\n".join(" ".join(line) for line in rows) + "\n")
    try:
        params = load_model(path)
    except ValueError:
        return
    for arr in (params.w1, params.b1, params.w2, params.b2, params.norm.x_offset,
                params.norm.x_scale, params.norm.y_offset, params.norm.y_scale):
        assert np.isfinite(arr).all()


def test_normalization_rejects_non_finite_maps():
    # NaN passes the set-point clamp, so it must stop at the model's boundary
    ok = dict(x_offset=np.zeros(7), x_scale=np.ones(7), y_offset=0.0, y_scale=1.0)
    for name, bad in (("x_offset", np.full(7, np.inf)), ("x_scale", np.full(7, np.nan)),
                      ("y_offset", np.nan), ("y_scale", np.inf)):
        with pytest.raises(ValueError, match=f"normalization {name} contains non-finite"):
            NormalizationSpec(**dict(ok, **{name: bad}))
    for name, bad, message in (("x_offset", np.zeros(6), "maps must have length 7"),
                               ("x_scale", np.zeros(7), "scales must be nonzero"),
                               ("y_scale", 0.0, "scales must be nonzero")):
        with pytest.raises(ValueError, match=f"normalization {message}"):
            NormalizationSpec(**dict(ok, **{name: bad}))


def make_trace(n_samples, attacked, vn1, clean=None, recv=None, v_ref=1.0):
    """Minimal 4-DG trace with the three voltage channels feeding DG1."""
    t = np.arange(n_samples) * 1e-3
    channels = [(0, 0, "voltage"), (1, 0, "voltage"), (3, 0, "voltage")]
    if clean is None:
        clean = np.tile([1.0, 1.01, 1.02], (n_samples, 1))
    if recv is None:
        recv = clean * (1.5 if attacked else 1.0)
    tr = Trace.empty(n_samples, 4, channels, 2)
    tr.t[:], tr.ch_recv[:] = t, recv
    tr.dg["v"][:, [0, 1, 3]] = clean            # a clean channel is its source DG's v
    tr.dg["Vn"][:, 0] = vn1
    tr.attack_active[:] = int(attacked)
    tr.v_ref, tr.w_ref = v_ref, 2 * np.pi * 60
    return tr


def test_build_dataset_rows_and_pairing():
    n = 201  # 0 .. 0.2 s at 1 ms; the first 0.1 s is discarded -> 101 kept
    clean_run = make_trace(n, attacked=False, vn1=1.05)
    attacked_run = make_trace(n, attacked=True, vn1=1.30)
    ds = build_dataset([(clean_run, clean_run, "normal"),
                        (attacked_run, clean_run, "attacked")])
    assert len(ds) == 101 + 2 * 101
    # normal rows: clean triple duplicated (recv == clean), target = own Vn1
    assert not ds.attacked[:101].any()
    np.testing.assert_array_equal(ds.x[0], [1.0, 1.01, 1.02, 1.0, 1.01, 1.02, 1.0])
    assert (ds.y[:101] == 1.05).all()
    # attacked paired rows: clean then corrupted triple, clean run's target
    row = ds.x[101]
    np.testing.assert_allclose(row[:3], [1.0, 1.01, 1.02])
    np.testing.assert_allclose(row[3:6], [1.5, 1.515, 1.53])
    assert (ds.y[101:] == 1.05).all()
    assert ds.attacked[101:].all()
    # duplicated-triple rows mirror the runtime feature layout
    dup = ds.x[202]
    np.testing.assert_allclose(dup[:3], dup[3:6])


def test_kernel_row_is_the_runtime_row_of_build_dataset_bitwise():
    # run time and training resolve one table: the row the kernel takes from
    # each recorded sample's x is the dataset's runtime-layout row
    cfg = builtin_scenario("default-nonperiodic", duration=0.3)
    cfg = replace(cfg, attacks=tuple(replace(a, tau=0.15) for a in cfg.attacks))
    attacked = run_scenario(cfg)
    ds = build_dataset([(attacked, run_scenario(replace(cfg, attacks=())), "attacked")])
    paired, runtime = np.split(ds.x, 2)
    assert (paired[:, :3] != runtime[:, :3]).any()
    cmap = ConsensusMap(cfg.graph, attacked.channels, cfg.gains, cfg.v_ref, cfg.w_ref, cfg.dt)
    cmap.droop[:] = np.nan   # read by no feature
    kernel = AnnKernel(init_params(np.random.default_rng(0), UNIT_NORM),
                       cmap.positions(FEATURES, 0))
    recorded = attacked.ch_recv[attacked.t >= 0.1 - 1e-12]
    assert len(recorded) == len(runtime)
    for recv, row in zip(recorded, runtime):
        cmap.recv[:] = recv
        ann_controller(kernel, cmap.x)
        assert kernel.row[0].tobytes() == row.tobytes()


def test_build_dataset_errors():
    with pytest.raises(DatasetError, match="no runs"):
        build_dataset([])
    short = make_trace(150, attacked=False, vn1=1.0)
    long = make_trace(201, attacked=True, vn1=1.0)
    with pytest.raises(DatasetError, match="different length"):
        build_dataset([(long, short, "mismatch")])
    long.v_ref = None   # as parse_csv leaves it
    with pytest.raises(DatasetError, match="trace no-ref is missing the voltage reference"):
        build_dataset([(long, long, "no-ref")])
    # each ended in an IndexError; the first from a CSV of t and attack_active alone
    no_dg = Trace.empty(150, 0, [], 0)
    with pytest.raises(DatasetError, match="run bare: the ANN controller on DG1 needs exactly 3"):
        build_dataset([(no_dg, no_dg, "bare")])
    one_dg = Trace.empty(150, 1, short.channels, 0)
    with pytest.raises(DatasetError, match="run cut: channel source DG4 has no columns"):
        build_dataset([(one_dg, one_dg, "cut")])
    with pytest.raises(DatasetError, match="clean reference for x has 3 DGs"):
        build_dataset([(short, Trace.empty(150, 3, [], 0), "x")])
    # its targets were the attacked run's V_n
    attacked = make_trace(150, attacked=True, vn1=1.3)
    with pytest.raises(DatasetError, match="clean reference for y is an attacked run"):
        build_dataset([(short, attacked, "y")])
