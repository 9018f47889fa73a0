import json
import shutil
import textwrap

import pytest

from mgres import cli
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


def test_compare_baseline_is_pi_whatever_the_file_names(pipeline, work):
    # the baseline kept the file's controllers, so a controller: ann file
    # compared the ANN with itself
    _, _, _, model = pipeline
    reports = {}
    for ctrl in ("ann", "pi"):
        path = work / f"compare-{ctrl}.yaml"
        path.write_text(SHORT_ATTACK_YAML.replace("duration: 0.8", "duration: 1.0")
                        + f"controller: {ctrl}\nann_model: {model}\n")
        report = work / f"report-{ctrl}.json"
        assert main(["compare", "--scenario", str(path), "--model", str(model),
                     "--report", str(report)]) == 0
        reports[ctrl] = json.loads(report.read_text())
    assert reports["ann"]["baseline"] != reports["ann"]["ann"]
    assert reports["ann"]["baseline"] == reports["pi"]["baseline"]
    assert reports["ann"]["ann"] == reports["pi"]["ann"]


NEIGHBOR_ATTACK_YAML = textwrap.dedent("""\
    duration: 0.55
    attacks:
      - {target: "dg2.voltage -> dg1", kind: nonperiodic, alpha: 0.5, tau: 0.05}
      - {target: "dg4.voltage -> dg1", kind: nonperiodic, alpha: 0.5, tau: 0.05}
    """)


def test_compare_reports_a_diverged_baseline_and_exits_2(pipeline, work, capsys):
    # DG1's own channel is clean and both neighbors' read half: PI diverges
    # about 0.49 s after the onset and its trace is cut there, which compare
    # took for a different scenario (exit 1, no report).  The onset at 0.05 s
    # leaves the cut trace the 0.5 s that its steady window needs.
    _, _, _, model = pipeline
    path, report = work / "neighbors.yaml", work / "neighbors.json"
    path.write_text(NEIGHBOR_ATTACK_YAML)
    assert main(["compare", "--scenario", str(path), "--model", str(model),
                 "--report", str(report)]) == 2
    d = json.loads(report.read_text())
    assert d["baseline"]["diverged"] is True
    assert 0.5 < d["baseline"]["diverged_time"] < 0.55
    assert d["baseline"]["eps_v_post_mean"] is None
    assert d["ann"]["diverged"] is False and d["ann"]["eps_v_post_mean"] is not None
    assert d["verdicts"]["ann_better_mean_eps_v"] is True   # PI diverged, the ANN held
    assert "report written" in capsys.readouterr().out


def test_compare_reports_a_baseline_that_diverges_inside_its_steady_window(
        pipeline, work, capsys):
    # with the onset at t = 0, PI diverges at about 0.49 s, before its trace
    # spans the 0.5 s steady window: compare exited 1 with no report
    _, _, _, model = pipeline
    path, report = work / "neighbors-at-0.yaml", work / "neighbors-at-0.json"
    path.write_text(NEIGHBOR_ATTACK_YAML.replace("0.55", "1.0").replace("tau: 0.05", "tau: 0"))
    assert main(["compare", "--scenario", str(path), "--model", str(model),
                 "--report", str(report)]) == 2
    d = json.loads(report.read_text())
    assert d["baseline"]["diverged"] is True and d["baseline"]["diverged_time"] < 0.5
    assert d["ann"]["diverged"] is False
    assert d["verdicts"]["ann_better_mean_eps_v"] is True
    assert "report written" in capsys.readouterr().out


def test_model_flag_replaces_a_stale_file_model(pipeline, work, capsys):
    # the file's model path was checked before --model replaced it, so a
    # stale one ended evaluate and compare with exit 1 even with a valid --model
    _, _, _, model = pipeline
    stale = work / "stale-model.yaml"
    stale.write_text("duration: 0.6\ncontroller: ann\nann_model: gone.txt\n")
    for command, out_flag in (("evaluate", "--out"), ("compare", "--report")):
        out = work / f"stale-{command}.out"
        assert main([command, "--scenario", str(stale), "--model", str(model),
                     out_flag, str(out)]) == 0
        assert out.exists()
    capsys.readouterr()
    # without --model the file's own path is the model, and it is checked
    assert main(["simulate", "--scenario", str(stale), "--out", str(work / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ANN model file not found:") and "gone.txt" in err


@pytest.mark.parametrize("doc, message", [
    ("- max_epochs: 40\n", "training config must be a mapping, got [{'max_epochs': 40}]"),
    ("learning_rat: 0.1\n", "unknown training config fields: ['learning_rat']"),
    ("learning_rate: 1.0e+300\nmax_epochs: 20\n",
     "no step improved the validation MSE in 20 epochs"),
    ("max_epochs: 2.7\n", "field 'max_epochs' in training config must be a whole number, got 2.7"),
    ("max_epochs: true\n",
     "field 'max_epochs' in training config must be a whole number, got True"),
    ("learning_rate: true\n",
     "field 'learning_rate' in training config must be a number, got True"),
    ("seed: -1\n", "seed must be >= 0, got -1"),
    # ran every epoch, then "lower the learning rate"; a NaN tolerance was accepted
    ("learning_rate: .inf\n", "max_epochs >= 1 and a finite learning_rate > 0 required"),
    ("tolerance: .nan\n", "tolerance must be finite, got nan"),
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


@pytest.mark.parametrize("line, old, new, message", [
    (4, ",", ",abc,", "line 5: could not convert string 'abc'"),
    # a KeyError traceback before the header was checked
    (0, "dg1.v", "dg1.foo", "bad DG column 'dg1.foo' at position 2, expected 'dg1.v'"),
], ids=["row", "header"])
def test_train_corrupt_csv_exits_1(pipeline, work, capsys, line, old, new, message):
    _, _, data, _ = pipeline
    bad = work / f"corrupt-data-{line}"
    shutil.copytree(data, bad)
    first = sorted(bad.glob("*.csv"))[0]
    lines = first.read_text().splitlines(keepends=True)
    lines[line] = lines[line].replace(old, new, 1)
    first.write_text("".join(lines))
    rc = main(["train", "--data", str(bad), "--out", str(work / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {first}: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc, message", [
    # a TypeError traceback, and two specs that failed only later
    ("tau: null\n", "field 'tau' in matrix must be a number, got None"),
    ("duration: [1]\n", "field 'duration' in matrix must be a number, got [1]"),
    ("alphas: 3\n", "field 'alphas' in matrix must be a list, got 3"),
    # read as 1.0
    ("tau: true\n", "field 'tau' in matrix must be a number, got True"),
    # two cells shared one id and one CSV; gen-data exited 0 and train failed later
    ("alphas: [0.5, 0.5000001]\n",
     "matrix alphas 0.5 and 0.5000001 both print as 0.5 in a run id"),
    ("load_factors: [1.0, 1.0000001]\n",
     "matrix load_factors 1.0 and 1.0000001 both print as 1 in a run id"),
    # a ZeroDivisionError traceback, 5/5 runs "ok" on negative impedances, an
    # OverflowError traceback, 5/5 "ok" with no load step, and exit 2 "diverged"
    ("load_factors: [0]\n", "matrix load_factors must be positive and finite, got 0.0"),
    ("load_factors: [-1.0]\n", "matrix load_factors must be positive and finite, got -1.0"),
    ("tau: .inf\n", "matrix tau must be finite and >= 0, got inf"),
    ("step_time: .nan\n", "matrix step_time must be finite and >= 0, got nan"),
    ("betas: [.nan]\n", "matrix betas must be finite, got nan"),
    ("alphas: [-.inf]\n", "matrix alphas must be finite, got -inf"),
    ("freq_hz: 0\n", "matrix freq_hz must be positive and finite, got 0.0"),
])
def test_malformed_matrix_exits_1(work, capsys, doc, message):
    path = work / "bad-matrix.yaml"
    path.write_text(doc)
    out = work / "unwritten-data"
    assert main(["gen-data", "--matrix", str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def attack_doc(kind: str = "nonperiodic, alpha: 0.5", tau: str = "0.01", end: str = "") -> str:
    return ("attacks:\n  - {target: \"broadcast -> dg1.voltage\", "
            f"kind: {kind}, tau: {tau}{end and ', end: ' + end}}}\n")


def one_dg_plant(line_r: str = "0.05", load_r: str = "0.8", m_p: str = "3.77") -> str:
    return (f"plant:\n  n_bus: 2\n  dg_bus: [1]\n  dgs: [{{m_p: {m_p}}}]\n"
            f"  lines: [{{from: 1, to: 2, r: {line_r}, x: 0.1}}]\n"
            f"  loads: [{{bus: 2, r: {load_r}, x: 0.3}}]\ngraph: {{edges: [], pinning: [1]}}\n")


@pytest.mark.filterwarnings("error")   # a non-finite value ran into NumPy warnings
@pytest.mark.parametrize("doc, message", [
    # the first two ran with exit 0, no attack rows and no load step; a NaN
    # gain made a config error look like a divergence (exit 2)
    ("load_events:\n  - {t: .nan, bus: 1, r: 0.8, x: 0.3}\n",
     "load event time t must be finite and >= 0, got nan"),
    (attack_doc(tau=".nan"), "attack start tau must be finite and >= 0, got nan"),
    (attack_doc(tau=".inf"), "attack start tau must be finite and >= 0, got inf"),
    (attack_doc(end=".nan"), "attack end nan must be finite and exceed tau 0.01"),
    (attack_doc(end=".inf"), "attack end inf must be finite and exceed tau 0.01"),
    (attack_doc(kind="nonperiodic, alpha: .nan"), "attack alpha must be finite, got nan"),
    (attack_doc(kind="periodic, beta: .nan, freq_hz: 60"), "attack beta must be finite, got nan"),
    (attack_doc(kind="periodic, beta: 0.5, omega: .inf"), "attack omega must be finite, got inf"),
    (attack_doc(kind="periodic, beta: 0.5, freq_hz: .nan"),
     "attack omega must be finite, got nan"),
    # each of these ran and exited 2, "diverged" at t = 0 or at the event
    ("references: {voltage: .nan}\n", "v_ref must be positive and finite, got nan"),
    ("references: {voltage: -1.0}\n", "v_ref must be positive and finite, got -1.0"),
    ("references: {frequency_hz: .inf}\n", "w_ref must be positive and finite, got inf"),
    ("gains: {c_v: .nan}\n", "secondary gain c_v must be positive and finite, got nan"),
    ("gains: {c_v: .inf}\n", "secondary gain c_v must be positive and finite, got inf"),
    ("load_events:\n  - {t: 0.02, bus: 1, r: .nan, x: 0.3}\n",
     "load event r and x must be finite, got r=nan, x=0.3"),
    (one_dg_plant(line_r=".nan"), "line 0-1 needs finite r >= 0 and x > 0, got r=nan, x=0.1"),
    (one_dg_plant(load_r=".nan"), "load at bus 1 needs finite r and x, got r=nan, x=0.3"),
    (one_dg_plant(m_p=".nan"), "DG m_p must be positive and finite, got nan"),
])
def test_non_finite_scenario_value_exits_1(work, capsys, doc, message):
    path = work / "non-finite.yaml"
    path.write_text("duration: 0.05\n" + doc)
    rc = main(["simulate", "--scenario", str(path), "--out", str(work / "unwritten.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (work / "unwritten.csv").exists()


# each command's YAML file, with the arguments that let it be read
YAML_COMMANDS = {
    "simulate": (["simulate", "--out", "unwritten.csv", "--scenario"], "duration: [1.0\n"),
    "gen-data": (["gen-data", "--out-dir", "unwritten-data", "--matrix"],
                 "load_factors: [1.0\n"),
    "train": (["train", "--data", "no-data", "--out", "unwritten.txt", "--config"],
              "max_epochs: [40\n"),
}


@pytest.mark.parametrize("command", YAML_COMMANDS)
def test_malformed_yaml_exits_1(work, capsys, command):
    # gen-data and train printed PyYAML's four-line message, simulate the
    # same four lines after "cannot parse <path>:"
    args, doc = YAML_COMMANDS[command]
    path = work / f"unparsable-{command}.yaml"
    path.write_text(doc)
    assert main(args + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {path}: line 2, column 1: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command, what", [("simulate", "scenario"), ("gen-data", "matrix"),
                                           ("train", "training config")])
def test_yaml_path_is_a_directory_exits_1(work, capsys, command, what):
    # an IsADirectoryError traceback
    args, _ = YAML_COMMANDS[command]
    assert main(args + [str(work)]) == 1
    assert capsys.readouterr().err == f"error: cannot read {what} {work}: Is a directory\n"


@pytest.mark.parametrize("manifest, message", [
    # a KeyError and a TypeError traceback before the manifest was checked
    ('[{"id": 1}]', "run 1 field 'id' must be a string, got 1"),
    ('{"a": 1}', "manifest.json must hold a list of run mappings"),
    ('[{"id": "a", "file": "a.csv", "status": "ok", "clean_ref": "a", "v_ref": 1.0}]',
     "run 1 field 'w_ref' must be a number, got None"),
    # read as 1.0: a JSON true is a Python int
    ('[{"id": "a", "file": "a.csv", "status": "ok", "clean_ref": "a", "v_ref": true,'
     ' "w_ref": 377.0}]', "run 1 field 'v_ref' must be a number, got True"),
    # an OverflowError traceback in build_dataset
    ('[{"id": "a", "file": "a.csv", "status": "ok", "clean_ref": "a", "v_ref": 1%s,'
     ' "w_ref": 377.0}]' % ("0" * 400), "run 1 field 'v_ref' must be finite, got 1000"),
    # an IsADirectoryError traceback in parse_csv
    ('[{"id": "a", "file": "", "status": "ok", "clean_ref": "a", "v_ref": 1.0,'
     ' "w_ref": 377.0}]', "run 'a' file '': Is a directory"),
    # the first run was silently dropped from the dataset
    ('[{"id": "a", "file": "a.csv", "status": "ok", "clean_ref": "a", "v_ref": 1.0,'
     ' "w_ref": 377.0}, {"id": "b", "file": "b.csv", "status": "ok", "clean_ref": "b",'
     ' "v_ref": 1.0, "w_ref": 377.0}, {"id": "a", "file": "c.csv", "status": "failed",'
     ' "clean_ref": "a", "v_ref": 1.0, "w_ref": 377.0}]', "runs 1 and 3 have the same id 'a'"),
])
def test_malformed_manifest_exits_1(work, capsys, manifest, message):
    data = work / "bad-manifest"
    data.mkdir(exist_ok=True)
    (data / "manifest.json").write_text(manifest)
    rc = main(["train", "--data", str(data), "--out", str(work / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("case", ["simulate --out", "gen-data --out-dir", "--model",
                                  "ann_model"])
def test_a_path_that_is_not_a_regular_file_exits_1(work, capsys, case):
    # each ended in an IsADirectoryError or FileExistsError traceback, and
    # simulate left <dir>.tmp behind
    short, a_dir, a_file = work / "short.yaml", work / "a-dir", work / "a-file"
    short.write_text("duration: 0.01\n")
    a_dir.mkdir(exist_ok=True)
    a_file.write_text("")
    (work / "dir-model.yaml").write_text(f"duration: 0.01\ncontroller: ann\nann_model: {a_dir}\n")
    args, message = {
        "simulate --out": (["simulate", "--scenario", str(short), "--out", str(a_dir)],
                           "Is a directory"),
        "gen-data --out-dir": (["gen-data", "--out-dir", str(a_file)], "File exists"),
        "--model": (["evaluate", "--scenario", str(short), "--model", str(a_dir),
                     "--out", str(work / "unwritten.csv")],
                    f"cannot read model file {a_dir}: Is a directory"),
        "ann_model": (["simulate", "--scenario", str(work / "dir-model.yaml"),
                       "--out", str(work / "unwritten.csv")],
                      f"cannot read model file {a_dir}: Is a directory"),
    }[case]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (work / "a-dir.tmp").exists() and not (work / "unwritten.csv").exists()


def test_compare_reads_the_model_before_it_simulates(work, capsys, monkeypatch):
    # the 4 s baseline ran first, and only then was the model read
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run_scenario(*args, **kwargs)

    run_scenario = cli.run_scenario
    monkeypatch.setattr(cli, "run_scenario", counted)
    bad, report = work / "malformed-model.txt", work / "unwritten-report.json"
    bad.write_text(model_text_with(1, "1 2 3 4 5"))
    assert main(["compare", "--scenario", "default", "--model", str(bad),
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err.startswith(f"error: model file {bad}: value row 1")
    assert calls == [] and not report.exists()


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
    # an AttributeError traceback before the scenario's sections were type-checked
    ("gains: 3\n", "field 'gains' in scenario must be a mapping, got 3"),
    ("load_events:\n  - {t: 0.2, bus: 1, r: [], x: 0.3}\n",
     "field 'r' in load event 1 must be a number"),
    ("attacks: 3\n", "field 'attacks' in scenario must be a list"),
    ("controllers: 3\n", "field 'controllers' in scenario must be a list"),
])
def test_malformed_scenario_exits_1(work, capsys, doc, field):
    path = work / "malformed.yaml"
    path.write_text("duration: 0.1\n" + doc)
    rc = main(["simulate", "--scenario", str(path), "--out", str(work / "m.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("value", ["[1]", "null", "abc", "true"])
def test_non_numeric_duration_exits_1(work, capsys, value):
    # duration: [1] ended in a TypeError traceback, and true was read as 1.0
    path = work / "bad-duration.yaml"
    path.write_text(f"duration: {value}\n")
    rc = main(["simulate", "--scenario", str(path), "--out", str(work / "m.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'duration' in scenario must be a number, got ")


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
    # the next four ended in a TypeError traceback
    ("graph:\n  pinning: [[1], 0, 0, 0]\n  edges: [[1, 2], [2, 3], [3, 4], [4, 1]]\n",
     "graph pinning entry 1 must be a number, got [1]"),
    (GRAPH4 + "[[[1], 2], [2, 3], [3, 4], [4, 1]]\n",
     "graph edge 1 from must be a whole number, got [1]"),
    ("plant:\n  n_bus: 1\n  dg_bus: [[1]]\n  dgs: [{}]\n  lines: []\n  loads: []\n",
     "plant dg_bus entry 1 must be a whole number, got [1]"),
    ("ann_model: 3\n", "field 'ann_model' in scenario must be a string, got 3"),
    # a fractional DG number was truncated, and an infinite bus an OverflowError
    (GRAPH4 + "[[1.5, 2], [2, 3], [3, 4], [4, 1]]\n",
     "graph edge 1 from must be a whole number, got 1.5"),
    ("load_events:\n  - {t: 0.05, bus: .inf, r: 0.8, x: 0.3}\n",
     "field 'bus' in load event 1 must be a whole number, got inf"),
])
def test_malformed_graph_or_dg_entry_exits_1(work, capsys, doc, field):
    path = work / "malformed-entry.yaml"
    path.write_text("duration: 0.1\n" + doc)
    assert main(["graph-info", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


PLANT_2BUS = ("plant:\n  n_bus: 2\n  dg_bus: [1]\n  dgs: [{m_p: 3.77}]\n"
              "  lines: [{from: 1, to: 2, r: 0.05, x: 0.1}]\n  loads: [{bus: 2, r: 0.8, x: 0.3}]\n"
              "graph: {edges: [], pinning: [1]}\n")


@pytest.mark.parametrize("doc, key, typo, mapping", [
    ("references: {voltage: 1.0}\n", "voltage", "voltag", "references"),
    ("gains: {c_v: 10}\n", "c_v", "c_V", "gains"),
    (PLANT_2BUS, "n_bus", "nbus", "plant"),
    (PLANT_2BUS, "m_p", "m_P", "plant dg 1"),
    (PLANT_2BUS, "x: 0.1", "X: 0.1", "plant line 1"),
    (PLANT_2BUS, "r: 0.8", "R: 0.8", "plant load 1"),
    (GRAPH4 + "[[1, 2], [2, 3], [3, 4], [4, 1]]\n", "pinning", "pining", "graph"),
    ("load_events:\n  - {t: 0.05, bus: 1, r: 0.8, x: 0.3}\n", "t:", "time:", "load event 1"),
    ("attacks:\n  - {target: 'broadcast -> dg1.voltage', kind: nonperiodic, alpha: 0.5,"
     " tau: 0.05, end: 0.08}\n", "end", "ends", "attack 1"),
], ids=["references", "gains", "plant", "plant-dg", "line", "load", "graph", "load-event",
        "attack"])
def test_misspelt_key_exits_1(work, capsys, doc, key, typo, mapping):
    # each was ignored, so the run used the default or failed on a missing key
    path = work / "misspelt.yaml"
    path.write_text("duration: 0.1\n" + doc.replace(key, typo, 1))
    assert main(["graph-info", "--scenario", str(path)]) == 1
    name = typo.split(":")[0]
    assert capsys.readouterr().err == f"error: unknown {mapping} fields: [{name!r}]\n"
    path.write_text("duration: 0.1\n" + doc)
    assert main(["graph-info", "--scenario", str(path)]) == 0


ONE_DG_YAML = ("duration: 0.05\nplant:\n  n_bus: 2\n  dg_bus: [1]\n  dgs: [{}]\n"
               "  lines: [{from: 1, to: 2, r: 0.05, x: 0.10}]\n"
               "  loads: [{bus: 2, r: 0.8, x: 0.3}]\n"
               "load_events:\n  - {t: 0.02, bus: 2, r: %g, x: %g}\n")


def test_singular_network_at_a_load_event_exits_2(work, capsys):
    # the new load cancels the line's admittance; this raised 'singular admittance
    # system' with exit 1 and wrote no trace
    path = work / "singular-event.yaml"
    path.write_text(ONE_DG_YAML % (-0.05, -0.10))
    out = work / "singular-event.csv"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    assert "diverged at t=0.020000s" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 1 + 20    # samples up to 0.019 s


def test_zero_impedance_load_event_exits_1(work, capsys):
    path = work / "zero-event.yaml"
    path.write_text(ONE_DG_YAML % (0, 0))
    assert main(["simulate", "--scenario", str(path), "--out", str(work / "z.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: load event at t=0.02 s on bus 2 has zero impedance\n")


def test_controller_and_controllers_exits_1(work, capsys):
    path = work / "two-controller-keys.yaml"
    path.write_text("duration: 0.1\ncontroller: ann\nann_model: m.txt\n"
                    "controllers: [pi, pi, pi, pi]\n")
    assert main(["simulate", "--scenario", str(path), "--out", str(work / "c.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: scenario takes controller or controllers, not both\n")


def test_ann_on_a_dg_without_two_in_neighbors_exits_1(work, capsys):
    # DG1 hears DG2 only, so the controller has no voltage triple to read
    (work / "ann-model.txt").write_text(model_text_with(8, "1"))
    path = work / "one-neighbor.yaml"
    path.write_text("duration: 0.01\ncontroller: ann\nann_model: ann-model.txt\n"
                    + GRAPH4 + "[[2, 1], [1, 2], [2, 3], [3, 4], [4, 3]]\n")
    assert main(["simulate", "--scenario", str(path), "--out", str(work / "n.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: the ANN controller on DG1 needs exactly 3 inbound voltage channels "
        "(its own and 2 in-neighbors'), got 2\n")


def test_resonant_passive_bus_exits_1(work, capsys):
    # line j0.1 in series with load -j0.1: the passive bus's admittance is 0
    path = work / "resonant.yaml"
    path.write_text("duration: 0.01\nplant:\n  n_bus: 2\n  dg_bus: [1]\n  dgs: [{}]\n"
                    "  lines: [{from: 1, to: 2, r: 0.0, x: 0.1}]\n"
                    "  loads: [{bus: 2, r: 0.0, x: -0.1}]\n")
    assert main(["simulate", "--scenario", str(path), "--out", str(work / "r.csv")]) == 1
    assert "singular admittance system" in capsys.readouterr().err
