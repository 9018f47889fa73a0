"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured numbers.  The shared
session fixture runs the complete pipeline once: training-data generation,
offline training, and the headline scenarios with both controllers.
"""

import time

import numpy as np
import pytest

from mgres.ann import (Dataset, MlpParams, TrainConfig, build_dataset, gradient,
                       init_params, forward_batch, load_model, mse, save_model, train)
from mgres.datagen import MatrixSpec, gen_data, load_runs
from mgres.metrics import POST_ATTACK_GUARD, compute_metrics
from mgres.plant import (DgParams, Line, Load, MicrogridModel, NetworkParams,
                         PlantWorkspace, solve_network)
from mgres.scenario import builtin_scenario
from mgres.simulate import run_scenario
from mgres.trace import export_csv, parse_csv, traces_equal


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def post_attack_eps(trace):
    """Mean and max |v_i - v*| per DG from POST_ATTACK_GUARD after the first
    attacked sample on, from the trace's columns."""
    onset = trace.t[np.flatnonzero(trace.attack_active)[0]]
    eps = np.abs(trace.dg["v"][trace.t >= onset + POST_ATTACK_GUARD] - trace.v_ref)
    return eps.mean(axis=0), eps.max(axis=0)


def per_dg(values) -> str:
    return ", ".join(f"{x:.5f}" for x in values)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    work = tmp_path_factory.mktemp("acceptance")
    data_dir = work / "data"
    model_path = work / "model.txt"

    t0 = time.monotonic()
    entries = gen_data(str(data_dir), MatrixSpec())
    gen_s = time.monotonic() - t0

    t0 = time.monotonic()
    params, report = train(build_dataset(load_runs(str(data_dir))), TrainConfig(seed=0))
    train_s = time.monotonic() - t0
    save_model(params, model_path)

    def run(name, ann=False):
        cfg = builtin_scenario(name, ann_model=str(model_path) if ann else None)
        t0 = time.monotonic()
        tr = run_scenario(cfg)
        return tr, time.monotonic() - t0

    pi_default, default_s = run("default")
    pi_np, _ = run("default-nonperiodic")
    ann_np, ann_np_s = run("default-nonperiodic", ann=True)
    pi_p, _ = run("default-periodic")
    ann_p, _ = run("default-periodic", ann=True)

    return {
        "work": work, "entries": entries, "report": report,
        "model_path": model_path,
        "gen_s": gen_s, "train_s": train_s,
        "pi_default": pi_default, "default_s": default_s,
        "pi_np": pi_np, "ann_np": ann_np, "ann_np_s": ann_np_s,
        "pi_p": pi_p, "ann_p": ann_p,
    }


def test_no_attack_regulation(pipeline, capsys):
    m = compute_metrics(pipeline["pi_default"])
    dv = m.steady_voltage_error_pct.max()
    df = m.steady_frequency_error_hz.max()
    ok = dv < 0.5 and df < 0.1 and pipeline["default_s"] < 30.0
    verdict(capsys, "no-attack regulation", ok,
            f"steady voltage error {dv:.4f}% (<0.5), frequency error "
            f"{df:.5f} Hz (<0.1), wall time {pipeline['default_s']:.1f}s (<30)")


def test_determinism(pipeline, capsys):
    again = run_scenario(builtin_scenario("default"))
    same = traces_equal(pipeline["pi_default"], again)
    csv_a = export_csv(pipeline["pi_default"])
    csv_b = export_csv(again)
    n = len(again.t)
    ok = same and csv_a == csv_b and n >= 4001
    verdict(capsys, "determinism", ok,
            f"repeated 4s run identical over {n} samples "
            f"(arrays bit-equal: {same}, CSV byte-equal: {csv_a == csv_b})")


def test_baseline_is_vulnerable(pipeline, capsys):
    m = compute_metrics(pipeline["pi_np"])
    ok = m.eps_v_post_mean is not None and m.eps_v_post_mean > 0.01
    verdict(capsys, "baseline vulnerability", ok,
            f"baseline post-attack mean |v1 - v*| = {m.eps_v_post_mean:.4f} pu "
            "(>0.01 required)")


def test_ann_mitigates_nonperiodic(pipeline, capsys):
    m_pi = compute_metrics(pipeline["pi_np"])
    m_ann = compute_metrics(pipeline["ann_np"])
    total = pipeline["gen_s"] + pipeline["train_s"] + pipeline["ann_np_s"]
    ratio = m_pi.eps_v_post_mean / m_ann.eps_v_post_mean
    ok = (m_ann.eps_v_post_max < 0.02 and ratio >= 2.0 and total < 300.0)
    verdict(capsys, "nonperiodic mitigation", ok,
            f"ann post-attack max {m_ann.eps_v_post_max:.5f} pu (<0.02), "
            f"mean eps_v improvement {ratio:.0f}x (>=2x), "
            f"pipeline {total:.0f}s (<300)")


def test_attack_propagates_to_every_dg(pipeline, capsys):
    # the abstract's claim: through the cooperative cyber layer the FDI on DG1
    # moves every DG under PI, and the ANN on DG1 alone holds every DG
    pi_mean, _ = post_attack_eps(pipeline["pi_np"])
    _, ann_max = post_attack_eps(pipeline["ann_np"])
    ok = pi_mean.min() > 0.1 and ann_max.max() < 0.01
    verdict(capsys, "attack propagation", ok,
            f"baseline post-attack mean |v_i - v*| per DG {per_dg(pi_mean)} pu (each >0.1), "
            f"ann on DG1 post-attack max per DG {per_dg(ann_max)} pu (each <0.01)")


def test_ann_mitigates_periodic(pipeline, capsys):
    m_pi = compute_metrics(pipeline["pi_p"])
    m_ann = compute_metrics(pipeline["ann_p"])
    ok = (m_ann.voltage_ripple < m_pi.voltage_ripple
          and m_ann.eps_v_post_max < 0.02)
    verdict(capsys, "periodic mitigation", ok,
            f"ann ripple {m_ann.voltage_ripple:.5f} pu < baseline "
            f"{m_pi.voltage_ripple:.5f}, ann post-attack max "
            f"{m_ann.eps_v_post_max:.5f} pu (<0.02)")


def test_gradient_against_finite_differences(capsys):
    rng = np.random.default_rng(0)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        params = init_params(rng)
        x = rng.uniform(-1, 1, (8, 7))
        y = rng.uniform(-1, 1, 8)
        grads = gradient(params, x, y)
        for name, g in zip(("w1", "b1", "w2", "b2"), grads):
            for idx in np.ndindex(g.shape):
                d = dict(w1=params.w1.copy(), b1=params.b1.copy(),
                         w2=params.w2.copy(), b2=params.b2.copy())
                d[name][idx] += eps
                hi = mse(MlpParams(d["w1"], d["b1"], d["w2"], d["b2"],
                                   params.norm), x, y)
                d[name][idx] -= 2 * eps
                lo = mse(MlpParams(d["w1"], d["b1"], d["w2"], d["b2"],
                                   params.norm), x, y)
                fd = (hi - lo) / (2 * eps)
                worst = max(worst, abs(g[idx] - fd))
    ok = worst < 1e-6
    verdict(capsys, "analytic gradient", ok,
            f"max |analytic - central difference| = {worst:.2e} over 100 draws "
            "(<1e-6)")


def test_network_solver_oracle(pipeline, capsys):
    net = NetworkParams(n_bus=2, lines=(Line(0, 1, 0.05, 0.10),),
                        loads=(Load(1, 0.8, 0.3),), dg_bus=(0,))
    ws = PlantWorkspace(MicrogridModel((DgParams(),), net), 1e-4, np.empty((2, 1)))
    ws.v[:], ws.delta[:] = 1.0, 0.0
    sol = solve_network(ws)
    z_line, z_load = 0.05 + 0.10j, 0.8 + 0.3j
    v1 = z_load / (z_line + z_load)
    s_dg = np.conj((1.0 - v1) / z_line)
    err = max(abs(sol.bus_v[1] - v1), abs(sol.s_dg[0] - s_dg))
    residual = max(pipeline["pi_default"].max_power_residual,
                   pipeline["ann_np"].max_power_residual)
    ok = err < 1e-9 and residual < 1e-9
    verdict(capsys, "network solver", ok,
            f"two-bus closed-form error {err:.2e} (<1e-9), worst closed-loop "
            f"power balance residual {residual:.2e} (<1e-9)")


def test_serialization_round_trips(pipeline, capsys):
    trace = pipeline["pi_np"]
    text = export_csv(trace)
    back = parse_csv(text)
    csv_ok = export_csv(back) == text and traces_equal(trace, back)

    path = pipeline["work"] / "roundtrip.txt"
    params = load_model(pipeline["model_path"])
    save_model(params, path)
    again = load_model(path)
    model_ok = all(np.array_equal(getattr(params, n), getattr(again, n))
                   for n in ("w1", "b1", "w2", "b2"))
    ok = csv_ok and model_ok
    verdict(capsys, "serialization", ok,
            f"CSV export->parse->export byte-identical: {csv_ok}, "
            f"model save->load exact: {model_ok}")


def test_trainer_fits_realizable_target(capsys):
    # data produced by a known 7-10-1 teacher must be fit nearly exactly
    rng = np.random.default_rng(42)
    teacher = init_params(rng)
    teacher = MlpParams(teacher.w1 * 0.3, teacher.b1 * 0.3,
                        teacher.w2, teacher.b2, teacher.norm)
    x = rng.uniform(-1, 1, (400, 7))
    y = forward_batch(teacher, x)
    attacked = np.zeros(400, dtype=bool)
    attacked[200:] = True
    ds = Dataset(x=x, y=y, attacked=attacked)
    _, report = train(ds, TrainConfig(max_epochs=30000, seed=0, tolerance=1e-16))
    ok = report.best_val_mse < 1e-6
    verdict(capsys, "trainer convergence", ok,
            f"validation MSE {report.best_val_mse:.2e} on a realizable target "
            "(<1e-6)")


def test_training_data_matrix_complete(pipeline, capsys):
    entries = pipeline["entries"]
    n_ok = sum(e["status"] == "ok" for e in entries)
    attacked = sum(e["attacked"] for e in entries)
    ok = len(entries) == 25 and n_ok == 25 and attacked == 20
    verdict(capsys, "training matrix", ok,
            f"{n_ok}/{len(entries)} runs ok ({attacked} attacked), "
            f"generation {pipeline['gen_s']:.0f}s, "
            f"training {pipeline['train_s']:.0f}s, best validation MSE "
            f"{pipeline['report'].best_val_mse:.2e}")
