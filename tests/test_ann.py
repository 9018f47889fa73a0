import numpy as np
import pytest

from mgres import ann
from mgres.ann import (AnnKernel, Dataset, DatasetError, MlpParams, NormalizationSpec,
                       TrainConfig, TrainingError, ann_controller, build_dataset, forward,
                       forward_batch, gradient, init_params, load_model, mse,
                       runtime_features, save_model, tansig, train)
from mgres.trace import Trace


def test_tansig_is_tanh():
    # 2/(1+exp(-2z)) - 1 evaluated independently
    z = 0.5
    assert tansig(z) == pytest.approx(2.0 / (1.0 + np.exp(-1.0)) - 1.0, abs=1e-15)
    assert tansig(0.5) == pytest.approx(0.46211715726000974, abs=1e-16)
    assert tansig(0.0) == 0.0
    np.testing.assert_allclose(tansig(np.array([-30.0, 30.0])), [-1.0, 1.0])


def test_forward_matches_hand_computation():
    rng = np.random.default_rng(1)
    params = init_params(rng)
    x = rng.uniform(-1, 1, 7)
    h = np.tanh(params.w1 @ x + params.b1)
    expect = float((params.w2 @ h + params.b2)[0])
    assert forward(params, x) == pytest.approx(expect, rel=1e-12)
    assert forward_batch(params, x[None, :])[0] == pytest.approx(expect, rel=1e-12)


def test_forward_respects_normalization():
    norm = NormalizationSpec(x_offset=np.full(7, 1.0), x_scale=np.full(7, 0.5),
                             y_offset=2.0, y_scale=3.0)
    raw = init_params(np.random.default_rng(2))
    params = MlpParams(raw.w1, raw.b1, raw.w2, raw.b2, norm)
    x = np.full(7, 1.25)
    xn = (x - 1.0) / 0.5
    inner = float((raw.w2 @ np.tanh(raw.w1 @ xn + raw.b1) + raw.b2)[0])
    assert forward(params, x) == pytest.approx(inner * 3.0 + 2.0, rel=1e-12)


def test_shape_validation():
    rng = np.random.default_rng(0)
    params = init_params(rng)
    with pytest.raises(ValueError):
        forward(params, np.zeros(6))
    with pytest.raises(ValueError):
        forward_batch(params, np.zeros((3, 8)))
    with pytest.raises(ValueError):
        MlpParams(np.zeros((9, 7)), np.zeros(10), np.zeros((1, 10)), np.zeros(1),
                  NormalizationSpec.identity())


def test_init_is_seeded_and_bounded():
    a = init_params(np.random.default_rng(5))
    b = init_params(np.random.default_rng(5))
    c = init_params(np.random.default_rng(6))
    np.testing.assert_array_equal(a.w1, b.w1)
    assert not np.array_equal(a.w1, c.w1)
    assert np.abs(a.w1).max() <= 1.0 / np.sqrt(7)
    assert np.abs(a.w2).max() <= 1.0 / np.sqrt(10)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    params = init_params(rng)
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


def test_gradient_is_the_reference_arithmetic_bitwise():
    # the fit kernel writes into buffers and sums columns with einsum; the
    # plain expressions, in the same order, are its reference bit for bit
    rng = np.random.default_rng(4)
    x = rng.uniform(0.9, 1.1, (500, 7))
    y = rng.uniform(1.0, 1.05, 500)
    params = init_params(rng, NormalizationSpec.from_data(x, y))
    norm = params.norm
    xn = (x - norm.x_offset) / norm.x_scale
    h = np.tanh(xn @ params.w1.T + params.b1)
    r = (h @ params.w2.T + params.b2)[:, 0] * norm.y_scale + norm.y_offset - y
    d_out = (2.0 / len(y)) * r * norm.y_scale
    d_a1 = d_out[:, None] * params.w2 * (1.0 - h * h)
    want = (d_a1.T @ xn, d_a1.sum(axis=0), (d_out @ h)[None, :], np.array([d_out.sum()]))
    for got, ref in zip(gradient(params, x, y), want):
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got, ref)


def test_normalization_from_data():
    x = np.zeros((4, 7))
    x[:, 0] = [0.0, 1.0, 2.0, 3.0]
    y = np.array([1.0, 3.0, 2.0, 1.0])
    norm = NormalizationSpec.from_data(x, y)
    assert norm.x_offset[0] == 1.5 and norm.x_scale[0] == 1.5
    assert norm.x_scale[1] == 1.0  # constant column falls back to unit scale
    xn = norm.normalize_x(x)
    assert xn[:, 0].min() == -1.0 and xn[:, 0].max() == 1.0
    assert norm.normalize_y(3.0) == 1.0 and norm.normalize_y(1.0) == -1.0
    assert norm.denormalize_y(norm.normalize_y(2.2)) == pytest.approx(2.2)


def synth_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.9, 1.1, (n, 7))
    y = 0.5 * x[:, 0] + 0.3 * x[:, 3] + 0.2
    attacked = np.zeros(n, dtype=bool)
    attacked[n // 2:] = True
    return Dataset(x=x, y=y, scenario=["s"] * n, t=np.zeros(n), attacked=attacked)


def test_train_learns_and_is_reproducible():
    ds = synth_dataset()
    cfg = TrainConfig(max_epochs=300, seed=1)
    p1, r1 = train(ds, cfg)
    p2, r2 = train(ds, cfg)
    np.testing.assert_array_equal(p1.w1, p2.w1)
    assert r1.train_mse == r2.train_mse
    assert r1.best_val_mse < r1.val_mse[0]
    assert r1.best_val_mse < 1e-5
    # accepted-step train MSE never increases
    acc = [m for m, a in zip(r1.train_mse, r1.accepted) if a]
    assert all(b <= a + 1e-15 for a, b in zip(acc, acc[1:]))


def test_best_val_mse_is_the_inference_mse():
    # the fit kernel's forward half must not drift from forward_batch
    ds = synth_dataset()
    for seed in (1, 2):
        cfg = TrainConfig(max_epochs=300, seed=seed)
        params, report = train(ds, cfg)
        order = np.random.default_rng(seed).permutation(len(ds))
        va = order[int(round(len(ds) * cfg.split)):]
        assert report.best_val_mse == mse(params, ds.x[va], ds.y[va])
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


def test_train_config_from_dict():
    tc = TrainConfig.from_dict({"learning_rate": "0.1", "max_epochs": 40}, seed=3)
    assert tc == TrainConfig(learning_rate=0.1, max_epochs=40, seed=3)
    assert TrainConfig.from_dict({"seed": 5}, seed=3).seed == 5
    assert TrainConfig.from_dict({}) == TrainConfig()
    with pytest.raises(ValueError, match=r"unknown training config fields: \['learning_rat'\]"):
        TrainConfig.from_dict({"learning_rat": 0.1})
    with pytest.raises(ValueError, match=r"unknown training config fields: \['1', 'a'\]"):
        TrainConfig.from_dict({1: 2, "a": 3})
    with pytest.raises(ValueError, match="must be a mapping, got list"):
        TrainConfig.from_dict([{"learning_rate": 0.1}])
    with pytest.raises(ValueError, match="'max_epochs' must be int, got None"):
        TrainConfig.from_dict({"max_epochs": None})
    with pytest.raises(ValueError, match="learning_rate > 0"):
        TrainConfig.from_dict({"learning_rate": float("nan")})
    # int(v) would train 2 epochs for 2.7 and 1 for true; a bool is no float either
    assert TrainConfig.from_dict({"max_epochs": 40.0, "seed": 2.0}) == TrainConfig(
        max_epochs=40, seed=2)
    for field, value, kind in (("max_epochs", 2.7, "int"), ("max_epochs", True, "int"),
                               ("seed", 0.5, "int"), ("seed", False, "int"),
                               ("max_epochs", float("inf"), "int"),
                               ("learning_rate", True, "float"),
                               ("learning_rate", 10 ** 400, "float")):
        with pytest.raises(ValueError, match=f"'{field}' must be {kind}, got {value!r}"):
            TrainConfig.from_dict({field: value})
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig.from_dict({"seed": -1})
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        TrainConfig.from_dict({}, seed=-3)


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
        Dataset(x=x, y=np.ones(60), scenario=["s"] * 60,
                t=np.zeros(60), attacked=np.ones(60, dtype=bool))


def test_runtime_features_and_clamp():
    f = runtime_features(np.array([1.0, 1.1, 1.2]), 1.0)
    np.testing.assert_array_equal(f, [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0])
    # force huge outputs through the denormalization to hit both clamps
    raw = init_params(np.random.default_rng(0))
    hi = MlpParams(raw.w1, raw.b1, raw.w2, raw.b2,
                   NormalizationSpec(np.zeros(7), np.ones(7), 100.0, 1.0))
    lo = MlpParams(raw.w1, raw.b1, raw.w2, raw.b2,
                   NormalizationSpec(np.zeros(7), np.ones(7), -100.0, 1.0))
    assert ann_controller(AnnKernel(hi, 1.0, range(3)), np.ones(3)) == 1.5
    assert ann_controller(AnnKernel(lo, 1.0, range(3)), np.ones(3)) == 0.5
    with pytest.raises(ValueError, match="length 3"):
        AnnKernel(hi, 1.0, range(2))


def test_controller_is_forward_on_runtime_features_bitwise():
    # ann_controller runs forward_batch's operations on one kernel's buffers
    # and skips forward's checks; the checked path is its reference, bit for
    # bit, also when one kernel is reused call after call
    rng = np.random.default_rng(5)
    x = rng.uniform(0.9, 1.1, (200, 7))
    params = init_params(rng, NormalizationSpec.from_data(x, rng.uniform(1.0, 1.05, 200)))
    triple = [4, 0, 2]
    kernel = AnnKernel(params, 1.02, triple)
    for channels in rng.uniform(0.8, 1.6, (300, 5)):
        want = min(max(forward(params, runtime_features(channels[triple], 1.02)), 0.5), 1.5)
        assert ann_controller(kernel, channels) == want
        assert ann_controller(AnnKernel(params, 1.02, triple), channels) == want


def test_model_round_trip_is_exact(tmp_path):
    params = init_params(np.random.default_rng(11))
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
    params = init_params(np.random.default_rng(2))
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


def test_normalization_rejects_non_finite_maps():
    # NaN passes the set-point clamp, so it must stop at the model's boundary
    ok = dict(x_offset=np.zeros(7), x_scale=np.ones(7), y_offset=0.0, y_scale=1.0)
    for name, bad in (("x_offset", np.full(7, np.inf)), ("x_scale", np.full(7, np.nan)),
                      ("y_offset", np.nan), ("y_scale", np.inf)):
        with pytest.raises(ValueError, match=f"normalization {name} contains non-finite"):
            NormalizationSpec(**dict(ok, **{name: bad}))


def make_trace(n_samples, attacked, vn1, clean=None, recv=None, v_ref=1.0):
    """Minimal 4-DG trace with the three voltage channels feeding DG1."""
    t = np.arange(n_samples) * 1e-3
    channels = [(0, 0, "voltage"), (1, 0, "voltage"), (3, 0, "voltage")]
    if clean is None:
        clean = np.tile([1.0, 1.01, 1.02], (n_samples, 1))
    if recv is None:
        recv = clean * (1.5 if attacked else 1.0)
    dg = {sig: np.zeros((n_samples, 4)) for sig in ("v", "w", "P", "Q", "Vn", "wn")}
    dg["Vn"][:, 0] = vn1
    return Trace(t=t, dg=dg, channels=channels, ch_clean=clean, ch_recv=recv,
                 load_buses=[0, 2], load_current=np.zeros((n_samples, 2)),
                 attack_active=np.full(n_samples, int(attacked)),
                 v_ref=v_ref, w_ref=2 * np.pi * 60)


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
    assert ds.t.min() >= 0.1 - 1e-12


def test_build_dataset_errors():
    with pytest.raises(DatasetError, match="no runs"):
        build_dataset([])
    short = make_trace(150, attacked=False, vn1=1.0)
    long = make_trace(201, attacked=True, vn1=1.0)
    with pytest.raises(DatasetError, match="different length"):
        build_dataset([(long, short, "mismatch")])
