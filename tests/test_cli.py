import json
import textwrap

import pytest

from mgres.cli import main
from test_ann import model_text_with

SHORT_ATTACK_YAML = textwrap.dedent("""\
    duration: 0.8
    load_events:
      - {t: 0.2, bus: 1, r: 0.8, x: 0.3}
    attacks:
      - {target: "broadcast -> dg1.voltage", kind: nonperiodic, alpha: 0.5, tau: 0.4}
    """)

TINY_MATRIX_YAML = textwrap.dedent("""\
    load_factors: [1.0]
    alphas: [0.5]
    betas: [0.5]
    tau: 0.4
    step_time: 0.2
    duration: 0.8
    """)

TRAIN_YAML = "max_epochs: 40\n"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "attack.yaml").write_text(SHORT_ATTACK_YAML)
    (d / "matrix.yaml").write_text(TINY_MATRIX_YAML)
    (d / "train.yaml").write_text(TRAIN_YAML)
    return d


def test_simulate_writes_trace(work, capsys):
    out = work / "trace.csv"
    rc = main(["simulate", "--scenario", str(work / "attack.yaml"),
               "--out", str(out)])
    assert rc == 0
    assert out.exists()
    header = out.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and header[-1] == "attack_active"
    assert "wrote 801 samples" in capsys.readouterr().out


def test_simulate_bad_scenario_exits_1(work, capsys):
    rc = main(["simulate", "--scenario", str(work / "missing.yaml"),
               "--out", str(work / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_divergence_exits_2(work, capsys):
    bad = work / "diverge.yaml"
    bad.write_text(SHORT_ATTACK_YAML.replace("alpha: 0.5", "alpha: -0.999")
                   .replace("tau: 0.4", "tau: 0.1"))
    rc = main(["simulate", "--scenario", str(bad), "--out", str(work / "d.csv")])
    assert rc == 2
    assert "diverged" in capsys.readouterr().out
    assert (work / "d.csv").exists()  # partial trace kept


def test_graph_info(work, capsys):
    rc = main(["graph-info", "--scenario", "default"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "4 DGs" in out and "dg1 receives from: dg2 (a=1), dg4 (a=1)" in out


@pytest.fixture(scope="module")
def pipeline(work):
    """gen-data -> train once for the evaluate/compare tests."""
    data = work / "data"
    model = work / "model.txt"
    rc1 = main(["gen-data", "--matrix", str(work / "matrix.yaml"),
                "--out-dir", str(data)])
    rc2 = main(["train", "--data", str(data), "--config", str(work / "train.yaml"),
                "--out", str(model)])
    return rc1, rc2, data, model


def test_gen_data_and_train(pipeline, capsys):
    rc1, rc2, data, model = pipeline
    assert rc1 == 0 and rc2 == 0
    manifest = json.loads((data / "manifest.json").read_text())
    assert len(manifest) == 3
    assert model.read_text().startswith("mgres-mlp 1 7 10 1\n")


def test_evaluate(pipeline, work, capsys):
    _, _, data, model = pipeline
    out = work / "eval.csv"
    rc = main(["evaluate", "--scenario", str(work / "attack.yaml"),
               "--model", str(model), "--out", str(out)])
    assert rc == 0
    assert out.exists()


def test_compare(pipeline, work, capsys):
    _, _, data, model = pipeline
    report = work / "report.json"
    rc = main(["compare", "--scenario", str(work / "attack.yaml"),
               "--model", str(model), "--report", str(report)])
    assert rc == 0
    d = json.loads(report.read_text())
    assert set(d) == {"baseline", "ann", "verdicts"}
    assert set(d["verdicts"]) == {"ann_better_mean_eps_v", "ann_within_limits",
                                  "ann_smaller_ripple"}
    out = capsys.readouterr().out
    assert "ann_better_mean_eps_v" in out


@pytest.mark.parametrize("doc, message", [
    ("- max_epochs: 40\n", "training config must be a mapping, got list"),
    ("learning_rat: 0.1\n", "unknown training config fields: ['learning_rat']"),
    ("learning_rate: 1.0e+300\nmax_epochs: 20\n",
     "no step improved the validation MSE in 20 epochs"),
    ("max_epochs: 2.7\n", "training config field 'max_epochs' must be int, got 2.7"),
    ("max_epochs: true\n", "training config field 'max_epochs' must be int, got True"),
    ("learning_rate: true\n", "training config field 'learning_rate' must be float, got True"),
    ("seed: -1\n", "seed must be >= 0, got -1"),
])
def test_bad_train_config_or_failed_fit_exits_1(pipeline, work, capsys, doc, message):
    _, _, data, _ = pipeline
    cfg = work / "bad-train.yaml"
    cfg.write_text(doc)
    out = work / "unsaved-model.txt"
    rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_train_negative_seed_exits_1(pipeline, work, capsys):
    _, _, data, _ = pipeline
    out = work / "unsaved-model.txt"
    rc = main(["train", "--data", str(data), "--out", str(out), "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_train_missing_data_exits_1(work, capsys):
    rc = main(["train", "--data", str(work / "nodata"),
               "--out", str(work / "m.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_empty_model_exits_1(work, capsys):
    empty = work / "empty-model.txt"
    empty.write_text("")
    rc = main(["evaluate", "--scenario", "default", "--model", str(empty),
               "--out", str(work / "e.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(empty) in err and "empty" in err


@pytest.mark.parametrize("row, values, message", [
    (6, "1 1 nan 1 1 1 1", "normalization x_scale contains non-finite entries"),
    (1, "1 2 3 4 5", "value row 1 (w1) has 5 values, expected 70"),
])
def test_evaluate_malformed_model_exits_1(work, capsys, row, values, message):
    # a NaN scale used to run and end as 'diverged at t=0.000100s', exit 2
    bad = work / "malformed-model.txt"
    bad.write_text(model_text_with(row, values))
    rc = main(["evaluate", "--scenario", "default", "--model", str(bad),
               "--out", str(work / "m.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: model file {bad}: {message}\n"


@pytest.mark.parametrize("doc, field", [
    ("plant:\n  n_bus: 2\n  dg_bus: [1]\n  dgs: [{}]\n"
     "  lines: [{to: 2, r: 0.05, x: 0.1}]\n  loads: [{bus: 2, r: 0.8, x: 0.3}]\n",
     "'from' in plant line 1"),
    ("load_events:\n  - {t: 0.2, r: 0.8, x: 0.3}\n", "'bus' in load event 1"),
    ("seed: 3\n", "unknown scenario fields: ['seed']"),
])
def test_malformed_scenario_exits_1(work, capsys, doc, field):
    path = work / "malformed.yaml"
    path.write_text("duration: 0.1\n" + doc)
    rc = main(["simulate", "--scenario", str(path), "--out", str(work / "m.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("command", [
    ["simulate", "--out", "x.csv"], ["graph-info"],
    ["evaluate", "--model", "m.txt", "--out", "x.csv"],
    ["compare", "--model", "m.txt", "--report", "r.json"],
])
def test_scenario_commands_take_no_seed(command, capsys):
    # the simulator draws no random numbers; only train takes --seed
    with pytest.raises(SystemExit) as exc:
        main(command + ["--scenario", "default", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


GRAPH4 = "graph:\n  pinning: [1, 0, 0, 0]\n  edges: "


@pytest.mark.parametrize("doc, field", [
    (GRAPH4 + "[[1, 2], [1]]\n", "graph edge 2 must be [from, to]"),
    (GRAPH4 + "[[1, 2], 3]\n", "graph edge 2 must be [from, to]"),
    ("plant:\n  n_bus: 1\n  dg_bus: [1]\n  dgs: [3]\n  lines: []\n  loads: []\n",
     "plant dg 1 must be a mapping"),
])
def test_malformed_graph_or_dg_entry_exits_1(work, capsys, doc, field):
    path = work / "malformed-entry.yaml"
    path.write_text("duration: 0.1\n" + doc)
    assert main(["graph-info", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def test_resonant_passive_bus_exits_1(work, capsys):
    # line j0.1 in series with load -j0.1: the passive bus's admittance is 0
    path = work / "resonant.yaml"
    path.write_text("duration: 0.01\nplant:\n  n_bus: 2\n  dg_bus: [1]\n  dgs: [{}]\n"
                    "  lines: [{from: 1, to: 2, r: 0.0, x: 0.1}]\n"
                    "  loads: [{bus: 2, r: 0.0, x: -0.1}]\n")
    assert main(["simulate", "--scenario", str(path), "--out", str(work / "r.csv")]) == 1
    assert "singular admittance system" in capsys.readouterr().err
