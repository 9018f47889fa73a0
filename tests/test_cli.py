import json
import math
import re
import shutil
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from mgres import cli
from mgres.cli import main
from mgres.scenario import load_scenario
from mgres.simulate import run_scenario
from mgres.trace import parse_csv
from test_acceptance import per_dg, post_attack_eps
from test_ann import model_text_with
from test_datagen import clean_ref_of_another_load

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

ROOT = Path(__file__).parent.parent
RING6 = ROOT / "tests" / "fixtures" / "ring6.yaml"
FIXTURE_MODEL = ROOT / "perfbench" / "fixtures" / "model.txt"   # trained on the 4-DG ring


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


def test_compare_on_a_six_dg_ring(tmp_path, capsys):
    # a second topology with its own plant and graph, under the paper's
    # attack on DG1: PI's vulnerability is gated; the 4-ring model runs as
    # every ring DG has two in-neighbors, and its figures are reported only
    report = tmp_path / "ring6.json"
    assert main(["compare", "--scenario", str(RING6), "--model", str(FIXTURE_MODEL),
                 "--report", str(report)]) == 0
    d = json.loads(report.read_text())
    assert d["baseline"]["eps_v_post_mean"] > 0.1
    with capsys.disabled():
        print(f"REPORT six-DG ring, PI mean eps_v {d['baseline']['eps_v_post_mean']:.4f} pu; "
              f"4-ring ANN on DG1 mean eps_v {d['ann']['eps_v_post_mean']:.5f} pu, "
              f"max {d['ann']['eps_v_post_max']:.5f} pu, verdicts {d['verdicts']}")


TABLE_B_ATTACK = "  - {target: \"%s\", kind: nonperiodic, alpha: 0.3, tau: 2.0}\n"


def test_compare_under_a_neighbor_only_attack(tmp_path, capsys):
    # DG1's own channel is clean and both neighbors' copies to DG1 read 1.3x:
    # PI moves, the ANN on DG1 holds
    path, report = tmp_path / "neighbors.yaml", tmp_path / "neighbors.json"
    path.write_text("duration: 4.0\nattacks:\n" + TABLE_B_ATTACK % "dg2.voltage -> dg1"
                    + TABLE_B_ATTACK % "dg4.voltage -> dg1")
    assert main(["compare", "--scenario", str(path), "--model", str(FIXTURE_MODEL),
                 "--report", str(report)]) == 0
    d = json.loads(report.read_text())
    pi_mean, ann_max = d["baseline"]["eps_v_post_mean"], d["ann"]["eps_v_post_max"]
    with capsys.disabled():
        print(f"REPORT neighbor-only attack on DG1, PI mean eps_v {pi_mean:.4f} pu (>0.1); "
              f"ANN on DG1 max eps_v {ann_max:.5f} pu (<0.01)")
    assert pi_mean > 0.1 and ann_max < 0.01
    assert d["verdicts"]["ann_better_mean_eps_v"] is True


def test_ann_on_an_unpinned_dg_holds_every_dg(tmp_path, capsys):
    # one channel into DG3, which the reference does not pin: under PI every DG
    # moves; the ANN on DG3 alone keeps every DG in band
    path = tmp_path / "unpinned.yaml"
    path.write_text(f"duration: 4.0\ncontrollers: [pi, pi, ann, pi]\n"
                    f"ann_model: {FIXTURE_MODEL}\nattacks:\n"
                    + TABLE_B_ATTACK % "dg2.voltage -> dg3")
    cfg = load_scenario(str(path))
    pi_mean, _ = post_attack_eps(run_scenario(replace(cfg, controllers=("pi",) * 4,
                                                      ann_model=None)))
    _, ann_max = post_attack_eps(run_scenario(cfg))
    with capsys.disabled():
        print(f"REPORT attack on unpinned DG3, PI mean eps_v per DG {per_dg(pi_mean)} pu "
              f"(each >0.1); ANN on DG3 max per DG {per_dg(ann_max)} pu (each <0.01)")
    assert pi_mean.min() > 0.1 and ann_max.max() < 0.01


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
    # the baseline kept the file's controllers, so a file with the ANN on
    # DG1 compared the ANN with itself
    _, _, _, model = pipeline
    reports = {}
    for ctrl in ("ann", "pi"):
        path = work / f"compare-{ctrl}.yaml"
        path.write_text(SHORT_ATTACK_YAML.replace("duration: 0.8", "duration: 1.0")
                        + f"controllers: [{ctrl}, pi, pi, pi]\nann_model: {model}\n")
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


@pytest.mark.parametrize("command, out_flag", [("evaluate", "--out"), ("compare", "--report")])
def test_a_scenario_shorter_than_the_steady_window_exits_1_before_a_run(
        pipeline, work, capsys, monkeypatch, command, out_flag):
    # evaluate wrote the whole CSV and compare ran both controllers, and only
    # then did the metrics find the 0.3 s trace shorter than their 0.5 s window
    _, _, _, model = pipeline
    path, out = work / "short-window.yaml", work / f"short-window-{command}.out"
    path.write_text(SHORT_ATTACK_YAML.replace("duration: 0.8", "duration: 0.3"))
    runs = []
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: runs.append(cfg))
    assert main([command, "--scenario", str(path), "--model", str(model),
                 out_flag, str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: steady window 0.5s exceeds trace span 0.300s\n"
    assert runs == [] and not out.exists()


def test_model_flag_replaces_a_stale_file_model(pipeline, work, capsys):
    # the file's model path was checked before --model replaced it, so a
    # stale one ended evaluate and compare with exit 1 even with a valid --model
    _, _, _, model = pipeline
    stale = work / "stale-model.yaml"
    stale.write_text("duration: 0.6\ncontrollers: [ann, pi, pi, pi]\nann_model: gone.txt\n")
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


def test_train_on_csvs_with_clean_channel_columns_exits_1(work, capsys):
    # gen-data once wrote each channel's clean value, a copy of its source
    # DG's v or w column, beside the received one
    data = work / "clean-columns"
    data.mkdir()
    (data / "manifest.json").write_text(
        '[{"id": "load1-normal", "file": "load1-normal.csv", "status": "ok", "attacked": false,'
        ' "clean_ref": "load1-normal", "v_ref": 1.0, "w_ref": 376.99111843077515}]\n')
    csv = data / "load1-normal.csv"
    csv.write_text("t,dg1.v,dg1.w,dg1.P,dg1.Q,dg1.Vn,dg1.wn,ch.dg1->dg1.voltage.clean,"
                   "ch.dg1->dg1.voltage.recv,load1.I,attack_active\n"
                   "0,1,376.99111843077515,0,0,1,376.99111843077515,1,1,0.5,0\n")
    out = work / "clean-columns-model.txt"
    rc = main(["train", "--data", str(data), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {csv}: bad channel column 'ch.dg1->dg1.voltage.clean' at position 8, "
        "expected 'ch.dg1->dg1.voltage.recv'\n")
    assert not out.exists()


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
    ("freq_hz: 0\n", "matrix freq_hz must be positive and finite, also in rad/s, got 0.0"),
    # "attack omega must be finite, got inf", a name the matrix does not have
    ("freq_hz: 1.0e+308\n",
     "matrix freq_hz must be positive and finite, also in rad/s, got 1e+308"),
    # "0/0 runs ok", an empty manifest and exit 0; train then found no run
    ("load_factors: []\n", "matrix load_factors must hold at least one value"),
    # an error that named no matrix, and an empty --out-dir left behind
    ("duration: 0\n", "matrix duration must be positive and finite, got 0.0"),
    ("duration: -1.0\n", "matrix duration must be positive and finite, got -1.0"),
    ("duration: .nan\n", "matrix duration must be positive and finite, got nan"),
    # exit 0 with attacked CSVs byte-identical to their normal cells'
    ("{load_factors: [1.0], alphas: [0.5], betas: [], tau: 0.5, duration: 0.3}\n",
     "matrix tau 0.5 must be less than duration 0.3 when the matrix has an attack case"),
    # no attack acts before the end (this matrix planned attacked cells that
    # resume from the normal cell at the last step)
    ("{load_factors: [0.9], alphas: [0.5], betas: [0.5], tau: 0.35, step_time: 0.1, "
     "duration: 0.3}\n",
     "matrix tau 0.35 must be less than duration 0.3 when the matrix has an attack case"),
    # exit 0 with two byte-identical normal CSVs under two ids
    ("{load_factors: [1.0, 1.3], alphas: [], betas: [], step_time: 0.5, duration: 0.3}\n",
     "matrix step_time 0.5 must be less than duration 0.3 "
     "when the matrix has two or more load factors"),
])
def test_malformed_matrix_exits_1(work, capsys, doc, message):
    path = work / "bad-matrix.yaml"
    path.write_text(doc)
    out = work / "unwritten-data"
    assert main(["gen-data", "--matrix", str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_cell_that_cannot_be_written_exits_1(tmp_path, capsys):
    # a directory where the clean cell's CSV goes: that cell's status is an
    # error and the command exits 1, not 2 (divergence); the other cell is ok
    matrix = tmp_path / "one-load.yaml"
    matrix.write_text("load_factors: [1.0]\nalphas: [0.5]\nbetas: []\ntau: 0.1\n"
                      "duration: 0.3\n")
    out = tmp_path / "data"
    (out / "load1-normal.csv").mkdir(parents=True)
    assert main(["gen-data", "--matrix", str(matrix), "--out-dir", str(out)]) == 1
    assert "1/2 runs ok" in capsys.readouterr().out
    status = {e["id"]: e["status"] for e in json.loads((out / "manifest.json").read_text())}
    assert status.pop("load1-normal").startswith("error: [Errno 21] Is a directory")
    assert list(status.values()) == ["ok"]


@pytest.mark.parametrize("command, duration, samples", [
    ("simulate", "1e9", 10**12 + 1), ("simulate", "1e15", 10**18 + 1),
    ("evaluate", "1e9", 10**12 + 1), ("compare", "1e9", 10**12 + 1)])
def test_a_trace_too_large_to_allocate_exits_1(work, capsys, command, duration, samples):
    # NumPy's MemoryError ('Unable to allocate 378. TiB ...') ended in a traceback,
    # and at 1e15 s its 'array is too big' text named no scenario
    path = work / "huge.yaml"
    path.write_text(f"duration: {duration}\n")
    out = ["--out", str(work / "huge.csv")]
    args = {"simulate": out, "evaluate": ["--model", str(FIXTURE_MODEL), *out],
            "compare": ["--model", str(FIXTURE_MODEL), "--report", str(work / "huge.json")]}
    assert main([command, "--scenario", str(path), *args[command]]) == 1
    assert capsys.readouterr().err == (
        f"error: scenario 'huge': cannot allocate a trace of {samples} samples\n")


def test_a_matrix_cell_too_large_to_allocate_is_its_error(tmp_path, capsys):
    # gen-data caught only ValueError and OSError: it crashed with no manifest
    matrix = tmp_path / "huge.yaml"
    matrix.write_text("load_factors: [1.0]\nalphas: []\nbetas: []\nduration: 1e9\n")
    out = tmp_path / "data"
    assert main(["gen-data", "--matrix", str(matrix), "--out-dir", str(out)]) == 1
    assert "0/1 runs ok" in capsys.readouterr().out
    [entry] = json.loads((out / "manifest.json").read_text())
    assert entry["status"] == ("error: scenario 'load1-normal': cannot allocate a trace of "
                               f"{10**12 + 1} samples")


FREQUENCY_ATTACK_YAML = ("duration: 4.0\nattacks:\n  - {target: \"broadcast -> dg1.frequency\", "
                         "kind: nonperiodic, alpha: %g, tau: 2.0}\n")


def test_a_frequency_channel_attack_moves_every_dgs_frequency(work, capsys):
    # a 10 % gain on DG1's inbound frequency copies pulls the whole grid towards
    # f* / (1 + alpha) = 54.5 Hz (measured 54.889-54.894 Hz at 4 s); no controller
    # in mgres acts on w_n
    path, out = work / "frequency-a0.1.yaml", work / "frequency-a0.1.csv"
    path.write_text(FREQUENCY_ATTACK_YAML % 0.1)
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    tr = parse_csv(str(out))
    assert tr.t[-1] == 4.0
    assert (tr.dg["w"][-1] / (2 * math.pi) < 57.0).all()


@pytest.mark.parametrize("command, model", [("simulate", []),
                                            ("evaluate", ["--model", str(FIXTURE_MODEL)])])
def test_a_frequency_channel_attack_at_alpha_05_diverges(work, capsys, command, model):
    # measured: PI diverges at 2.174 s; the ANN on DG1 sets V_n only, and diverges at 2.2318 s
    path, out = work / "frequency-a0.5.yaml", work / f"frequency-a0.5-{command}.csv"
    path.write_text(FREQUENCY_ATTACK_YAML % 0.5)
    assert main([command, "--scenario", str(path), *model, "--out", str(out)]) == 2
    line = capsys.readouterr().out
    m = re.fullmatch(r"diverged at t=(\S+)s \(state magnitude \S+ exceeded 10\.0 pu\); "
                     r"partial trace in \S+\n", line)
    assert m is not None, line
    assert 2.0 < float(m[1]) < 2.5


def attack_doc(kind: str = "nonperiodic, alpha: 0.5", tau: str = "0.01", end: str = "") -> str:
    return ("attacks:\n  - {target: \"broadcast -> dg1.voltage\", "
            f"kind: {kind}, tau: {tau}{end and ', end: ' + end}}}\n")


def one_dg_plant(line_r: str = "0.05", load_r: str = "0.8", m_p: str = "3.77") -> str:
    return (f"plant:\n  n_bus: 2\n  dg_bus: [1]\n  dgs: [{{m_p: {m_p}}}]\n"
            f"  lines: [{{from: 1, to: 2, r: {line_r}, x: 0.1}}]\n"
            f"  loads: [{{bus: 2, r: {load_r}, x: 0.3}}]\ngraph: {{edges: [], pinning: [1]}}\n")


def two_dg_plant(line: str = "r: 0.05, x: 0.1", load: str = "r: 0.8, x: 0.3") -> str:
    """Two DG buses and one line: the solve reads every admittance directly."""
    return (f"plant:\n  n_bus: 2\n  dg_bus: [1, 2]\n  dgs: [{{}}, {{}}]\n"
            f"  lines: [{{from: 1, to: 2, {line}}}]\n  loads: [{{bus: 2, {load}}}]\n"
            "graph: {edges: [[1, 2], [2, 1]], pinning: [1, 0]}\n")


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
    (attack_doc(kind="periodic, beta: 0.5, freq_hz: .inf"),
     "attack freq_hz must be positive and finite, got inf"),
    (attack_doc(kind="periodic, beta: 0.5, freq_hz: .nan"),
     "attack freq_hz must be positive and finite, got nan"),
    # these two ran: 0 Hz left the attack without effect, and -60 Hz flipped its sign
    (attack_doc(kind="periodic, beta: 0.5, freq_hz: 0"),
     "attack freq_hz must be positive and finite, got 0.0"),
    (attack_doc(kind="periodic, beta: 0.5, freq_hz: -60"),
     "attack freq_hz must be positive and finite, got -60.0"),
    # finite in hertz, but 2 pi hz is not: it failed as "attack omega must be finite"
    (attack_doc(kind="periodic, beta: 0.5, freq_hz: 1e308"),
     "attack freq_hz 1e+308 overflows in rad/s"),
    # each of these ran and exited 2, "diverged" at t = 0 or at the event
    ("references: {voltage: .nan}\n",
     "references voltage must be positive and finite, got nan"),
    ("references: {voltage: -1.0}\n",
     "references voltage must be positive and finite, got -1.0"),
    ("references: {frequency_hz: .inf}\n",
     "references frequency_hz must be positive and finite, got inf"),
    ("references: {frequency_hz: -60}\n",
     "references frequency_hz must be positive and finite, got -60.0"),
    ("references: {frequency_hz: 1e308}\n", "references frequency_hz 1e+308 overflows in rad/s"),
    ("gains: {c_v: .nan}\n", "secondary gain c_v must be positive and finite, got nan"),
    ("gains: {c_v: .inf}\n", "secondary gain c_v must be positive and finite, got inf"),
    ("load_events:\n  - {t: 0.02, bus: 1, r: .nan, x: 0.3}\n",
     "load event r and x must be finite, got r=nan, x=0.3"),
    (one_dg_plant(line_r=".nan"), "line 1-2 needs finite r >= 0 and x > 0, got r=nan, x=0.1"),
    (one_dg_plant(load_r=".nan"), "load at bus 2 needs finite r and x, got r=nan, x=0.3"),
    (one_dg_plant(m_p=".nan"), "DG m_p must be positive and finite, got nan"),
    # finite, but 1/z overflows: the solve read inf, and the run "diverged" at
    # t = 0 or at the event, with the cause "state magnitude nan" (exit 2)
    (two_dg_plant(line="r: 0, x: 1.0e-320"),
     "line 1-2 has an impedance too small to invert, r=0.0, x=1e-320"),
    (two_dg_plant(load="r: 1.0e-320, x: 0"),
     "load at bus 2 has an impedance too small to invert, r=1e-320, x=0.0"),
    ("load_events:\n  - {t: 0.02, bus: 1, r: 1.0e-320, x: 0}\n",
     "load event at t=0.02 s on bus 1 has an impedance too small to invert, r=1e-320, x=0.0"),
    # an OverflowError traceback: a step count of inf in last_step, a sample
    # ratio of inf in the ratio check
    ("dt: 1.0e-310\n", "duration / dt is not finite: 0.05 / 1e-310"),
    ("dt: 1.0e-300\nsample_period: 1.0e+300\n",
     "sample_period / dt is not finite: 1e+300 / 1e-300"),
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
    # a codec or JSON error that named no file
    (b"[\xff]", "manifest.json: 'utf-8' codec can't decode byte 0xff in position 1"),
    ("not json", "manifest.json: Expecting value: line 1 column 1 (char 0)"),
])
def test_malformed_manifest_exits_1(work, capsys, manifest, message):
    data = work / "bad-manifest"
    data.mkdir(exist_ok=True)
    (data / "manifest.json").write_bytes(
        manifest if isinstance(manifest, bytes) else manifest.encode())
    rc = main(["train", "--data", str(data), "--out", str(work / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1


# a manifest of one ok run, "a", whose CSV is a.csv
ONE_RUN = ('[{"id": "a", "file": "a.csv", "status": "ok", "clean_ref": "a", "v_ref": 1.0,'
           ' "w_ref": 377.0}]')


def test_a_clean_reference_of_another_load_exits_1(tmp_path, capsys):
    data = clean_ref_of_another_load(tmp_path / "data")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.txt")]) == 1
    assert capsys.readouterr().err == (
        "error: clean reference for load1.15-nonperiodic-a0.5 differs from it before the "
        "attack, first at t=0.200000s\n")
    assert not (tmp_path / "m.txt").exists()


def test_a_run_without_dg1s_voltage_triple_exits_1(tmp_path, capsys):
    # an IndexError traceback in build_dataset
    (tmp_path / "manifest.json").write_text(ONE_RUN)
    (tmp_path / "a.csv").write_text("t,attack_active\n0,0\n")
    assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run a: the ANN controller on DG1 needs exactly 3 inbound "
                          "voltage channels") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["model", "csv"])
def test_a_file_that_is_not_utf8_exits_1(tmp_path, capsys, case):
    # a codec error that named no file
    if case == "model":
        path = tmp_path / "model.txt"
        path.write_bytes(FIXTURE_MODEL.read_bytes() + b"\xff")
        args = ["evaluate", "--scenario", "default", "--model", str(path),
                "--out", str(tmp_path / "unwritten.csv")]
    else:
        path = tmp_path / "a.csv"
        path.write_bytes(b"t,attack_active\n0,0\n\xff\n")
        (tmp_path / "manifest.json").write_text(ONE_RUN)
        args = ["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.txt")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


@pytest.mark.parametrize("case", ["simulate --out", "gen-data --out-dir", "--model",
                                  "ann_model"])
def test_a_path_that_is_not_a_regular_file_exits_1(work, capsys, case):
    # each ended in an IsADirectoryError or FileExistsError traceback, and
    # simulate left <dir>.tmp behind
    short, a_dir, a_file = work / "short.yaml", work / "a-dir", work / "a-file"
    short.write_text("duration: 0.01\n")
    a_dir.mkdir(exist_ok=True)
    a_file.write_text("")
    (work / "dir-model.yaml").write_text(
        f"duration: 0.01\ncontrollers: [ann, pi, pi, pi]\nann_model: {a_dir}\n")
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
    (attack_doc(kind="periodic, beta: 0.5"), "missing required field 'freq_hz' in attack 1"),
    (attack_doc(kind="ramp"), "attack 1 kind must be nonperiodic or periodic, got 'ramp'"),
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


def plant4(lines: str = "[{from: 1, to: 2, r: 0.05, x: 0.1}, {from: 2, to: 3, r: 0.05, x: 0.1},"
                        " {from: 3, to: 4, r: 0.05, x: 0.1}]",
           loads: str = "[{bus: 4, r: 0.8, x: 0.3}]") -> str:
    """A 4-bus plant with three DGs on buses 1 to 3, a line chain and one load."""
    return (f"plant:\n  n_bus: 4\n  dg_bus: [1, 2, 3]\n  dgs: [{{}}, {{}}, {{}}]\n"
            f"  lines: {lines}\n  loads: {loads}\n")


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
    # the next three named the file's DG 3 and buses 5 and 4 by 0-based index
    (GRAPH4 + "[[1, 2], [2, 1], [3, 4], [4, 3]]\n",
     "error: invalid communication graph: DG 3 is unreachable from the reference\n"),
    (plant4(loads="[{bus: 5, r: 0.8, x: 0.3}]"), "error: load bus 5 does not exist\n"),
    (plant4(lines="[{from: 1, to: 2, r: 0.05, x: 0.1}, {from: 2, to: 3, r: 0.05, x: 0.1}]"),
     "error: network is not connected (isolated buses [4])\n"),
    (GRAPH4 + "[[1, 2], [2, 3], [3, 4], [1, 9]]\n",
     "error: graph edge (1, 9) references an unknown DG\n"),
    # a zero weight dropped both channels of the edge, and a repeated edge
    # kept its last weight
    (GRAPH4 + "[[2, 3], [3, 4], [1, 2, 0], [4, 1]]\n",
     "error: graph edge 3 weight must be positive, got 0\n"),
    (GRAPH4 + "[[1, 2], [2, 3], [3, 4], [4, 1], [1, 2, 3.0]]\n",
     "error: graph edge (1, 2) is given twice\n"),
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
    # a frequency is given in hertz: the rad/s keys are unknown
    ("references: {frequency_hz: 60}\n", "frequency_hz", "frequency", "references"),
    (attack_doc(kind="periodic, beta: 0.5, freq_hz: 60"), "freq_hz", "omega", "attack 1"),
], ids=["references", "gains", "plant", "plant-dg", "line", "load", "graph", "load-event",
        "attack", "references-rad-s", "attack-rad-s"])
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
    assert capsys.readouterr().out.startswith(
        "diverged at t=0.020000s (singular admittance system: ")
    assert len(out.read_text().splitlines()) == 1 + 20    # samples up to 0.019 s


@pytest.mark.parametrize("command, model, t", [("simulate", [], "0.001100"),
                                               ("evaluate", ["--model", str(FIXTURE_MODEL)],
                                                "0.000800")])
def test_a_diverged_run_prints_its_cause(work, capsys, command, model, t):
    # an integral gain whose step overshoots; only the time was printed
    path = work / "overshoot.yaml"
    path.write_text(SHORT_ATTACK_YAML + "gains: {c_v: 10000}\n")
    out = work / f"overshoot-{command}.csv"
    assert main([command, "--scenario", str(path), *model, "--out", str(out)]) == 2
    assert capsys.readouterr().out == (f"diverged at t={t}s (non-positive or non-finite droop "
                                       f"voltage); partial trace in {out}\n")


def test_zero_impedance_load_event_exits_1(work, capsys):
    path = work / "zero-event.yaml"
    path.write_text(ONE_DG_YAML % (0, 0))
    assert main(["simulate", "--scenario", str(path), "--out", str(work / "z.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: load event at t=0.02 s on bus 2 has zero impedance\n")


RING_EDGES = "[[1, 2], [2, 1], [2, 3], [3, 2], [3, 4], [4, 3], [4, 1], [1, 4]]"


@pytest.mark.parametrize("doc, line", [
    (attack_doc(kind="nonperiodic, alpha: 1e308"),
     "diverged at t=0.010100s (non-positive or non-finite droop voltage)"),
    (f"graph: {{edges: {RING_EDGES}, pinning: [1e308, 0, 0, 0]}}\n",
     "diverged at t=0.000200s (state magnitude inf exceeded 10.0 pu)"),
], ids=["attack", "pinning"])
def test_an_overflowing_run_diverges_without_a_warning(work, capsys, doc, line):
    # NumPy's overflow warnings from inside the step came before the run's
    # own divergence line; the step guards already name the cause
    path = work / "overflow.yaml"
    path.write_text("duration: 0.05\n" + doc)
    out = work / "overflow.csv"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr() == (f"{line}; partial trace in {out}\n", "")


def test_controller_and_controllers_exits_1(work, capsys):
    path = work / "two-controller-keys.yaml"
    path.write_text("duration: 0.1\ncontroller: ann\nann_model: m.txt\n"
                    "controllers: [pi, pi, pi, pi]\n")
    assert main(["simulate", "--scenario", str(path), "--out", str(work / "c.csv")]) == 1
    assert capsys.readouterr().err == "error: unknown scenario fields: ['controller']\n"


def test_ann_on_a_dg_without_two_in_neighbors_exits_1(work, capsys, monkeypatch):
    # DG1 hears DG2 only, so the controller has no voltage triple to read
    message = ("error: the ANN controller on DG1 needs exactly 3 inbound voltage channels "
               "(its own and 2 in-neighbors'), got 2\n")
    model = work / "ann-model.txt"
    model.write_text(model_text_with(8, "1"))
    graph = GRAPH4 + "[[2, 1], [1, 2], [2, 3], [3, 4], [4, 3]]\n"
    path = work / "one-neighbor.yaml"
    path.write_text("duration: 0.01\ncontrollers: [ann, pi, pi, pi]\nann_model: ann-model.txt\n"
                    + graph)
    assert main(["simulate", "--scenario", str(path), "--out", str(work / "n.csv")]) == 1
    assert capsys.readouterr().err == message
    # compare ran the whole PI baseline before the ANN run found it
    monkeypatch.setattr(cli, "run_scenario", fail_if_called)
    path, report = work / "one-neighbor-compare.yaml", work / "one-neighbor.json"
    path.write_text("duration: 0.6\n" + graph)
    assert main(["compare", "--scenario", str(path), "--model", str(model),
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == message
    assert not report.exists()


def fail_if_called(*args, **kwargs):
    raise AssertionError("the command did work before it checked its input")


@pytest.mark.parametrize("command", ["simulate", "evaluate", "compare", "train"])
@pytest.mark.parametrize("case", ["a directory", "no parent"])
def test_an_output_path_that_cannot_be_written_exits_1_before_any_work(
        pipeline, work, capsys, monkeypatch, command, case):
    # the error came only after the runs (compare: both 4 s runs) or the whole fit
    _, _, data, model = pipeline
    out = work if case == "a directory" else work / "no" / "such" / "out"
    monkeypatch.setattr(cli, "run_scenario", fail_if_called)
    monkeypatch.setattr(cli.annmod, "train", fail_if_called)
    scenario = ["--scenario", "default-nonperiodic"]
    args = {"simulate": ["simulate", *scenario, "--out", str(out)],
            "evaluate": ["evaluate", *scenario, "--model", str(model), "--out", str(out)],
            "compare": ["compare", *scenario, "--model", str(model), "--report", str(out)],
            "train": ["train", "--data", str(data), "--out", str(out)]}[command]
    assert main(args) == 1
    reason = "Is a directory" if case == "a directory" else "No such directory"
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert not (work / "no").exists() and not Path(f"{out}.tmp").exists()


def test_resonant_passive_bus_exits_1(work, capsys):
    # line j0.1 in series with load -j0.1: the passive bus's admittance is 0
    path = work / "resonant.yaml"
    path.write_text("duration: 0.01\nplant:\n  n_bus: 2\n  dg_bus: [1]\n  dgs: [{}]\n"
                    "  lines: [{from: 1, to: 2, r: 0.0, x: 0.1}]\n"
                    "  loads: [{bus: 2, r: 0.0, x: -0.1}]\n")
    assert main(["simulate", "--scenario", str(path), "--out", str(work / "r.csv")]) == 1
    assert "singular admittance system" in capsys.readouterr().err
