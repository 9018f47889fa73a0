import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgres import datagen
from mgres.ann import DatasetError, TrainConfig, build_dataset, train
from mgres.datagen import MatrixSpec, gen_data, load_runs, training_matrix
from mgres.graph import CommGraph
from mgres.scenario import ConfigReader, ScenarioError
from mgres.simulate import run_scenario
from mgres.trace import TraceFormatError, parse_csv
from reference import csv_text
from test_golden import GEN_MATRIX, GEN_MATRIX_EARLY

TINY = MatrixSpec(load_factors=(1.0,), alphas=(0.5,), betas=(0.5,),
                  tau=0.4, step_time=0.2, duration=0.8)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    gen_data(str(out), TINY)
    return str(out)


def test_matrix_layout():
    cells = training_matrix(MatrixSpec())
    assert len(cells) == 5 * 5  # load factors x {normal, 2 alphas, 2 betas}
    ids = [cfg.scenario_id for cfg, _ in cells]
    assert "load1-normal" in ids and "load0.7-periodic-b0.5" in ids
    by_id = dict(zip(ids, cells))
    cfg, clean = by_id["load1.15-nonperiodic-a0.25"]
    assert clean == "load1.15-normal"
    assert cfg.attacks[0].kind.alpha == 0.25
    assert cfg.attacks[0].tau == 2.0
    cfg_n, clean_n = by_id["load1.3-normal"]
    assert clean_n is None and cfg_n.attacks == ()
    # the load step scales both load impedances by 1/f at the step time
    ev = cfg.load_events[0]
    assert ev.t == 1.0 and ev.r == pytest.approx(0.8 / 1.15)


def test_matrix_cells_share_one_plant_and_graph(tmp_path):
    cells = [cfg for cfg, _ in training_matrix(MatrixSpec())]
    assert all(cfg.model is cells[0].model and cfg.graph is cells[0].graph for cfg in cells)
    # the cells share the plant's network solver too, and write the same bytes
    first, second = tmp_path / "first", tmp_path / "second"
    gen_data(str(first), GEN_MATRIX)
    gen_data(str(second), GEN_MATRIX)
    names = sorted(p.name for p in first.iterdir())
    assert len(names) == 11 and names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_a_matrix_derives_its_channel_layout_once(monkeypatch):
    # each of the 25 cells' validation rebuilt the layout: 4 in_neighbors calls per cell
    calls = []
    inner = CommGraph.in_neighbors
    monkeypatch.setattr(CommGraph, "in_neighbors", lambda g, i: calls.append(i) or inner(g, i))
    cells = training_matrix(MatrixSpec())
    assert len(cells) == 25 and calls == [0, 1, 2, 3]
    # no cache across calls: each call builds its own graph and its layout
    training_matrix(MatrixSpec())
    assert calls == [0, 1, 2, 3] * 2


# (matrix, the first step each cell simulates in matrix order, None for a full
# run; the plant steps of the matrix; those of a plan that resumes attacked
# cells only from their own load factor's normal cell at the onset, which the
# plan must never exceed)
FULL_AND_4 = (None, 2000, 2000, 2000, 2000)
FORK_MATRICES = {
    # the benchmark's seed-1 draw: onset at step 2000, a sample step; the second
    # normal cell resumes from the first at the load step
    "perfbench": (MatrixSpec(load_factors=(1.007, 1.27), alphas=(0.286, 0.487),
                             betas=(0.328, 0.356), freq_hz=61.311, step_time=0.1,
                             tau=0.2, duration=0.4),
                  FULL_AND_4 + (1000, 2000, 2000, 2000, 2000), 23010, 24010),
    # first active at step 2004: the fork is the sample step before it
    "onset off a sample": (MatrixSpec(load_factors=(0.9,), alphas=(0.5,), betas=(0.5,),
                                      tau=0.20037, step_time=0.1, duration=0.3),
                           (None, 2000, 2000), 5003, 5003),
    # first active at step 2009: one step later would fork at 2010, after it
    "onset a step before a sample": (MatrixSpec(load_factors=(0.9,), alphas=(0.5,),
                                                betas=(0.5,), tau=0.20085, step_time=0.1,
                                                duration=0.3),
                                     (None, 2000, 2000), 5003, 5003),
    # an onset at t = 0 leaves no stretch to share
    "onset at 0": (MatrixSpec(load_factors=(0.9,), alphas=(0.5,), betas=(0.5,),
                              tau=0.0, step_time=0.1, duration=0.3),
                   (None, None, None), 9003, 9003),
    # the normal cell diverges at 0.0765 s, before the fork
    "diverged before the fork": (MatrixSpec(load_factors=(25.0,), alphas=(0.5,),
                                            betas=(0.5,), tau=0.2, step_time=0.05,
                                            duration=0.3),
                                 (None, None, None), 2298, 2298),
    # the onset before the load step: a later load factor's cell of each attack
    # case resumes from the first load factor's cell of that case at the load step
    "onset before the load step": (MatrixSpec(load_factors=(0.85, 1.0, 1.15), tau=0.05,
                                              step_time=0.1, duration=0.3),
                                   (None,) + (500,) * 4 + (1000,) * 10, 33015, 39015),
    # the onset at the load step: every later cell resumes there
    "onset at the load step": (MatrixSpec(load_factors=(0.85, 1.15), tau=0.15,
                                          step_time=0.15, duration=0.3),
                               (None,) + (1500,) * 9, 16510, 18010),
    # load events applied at step 0 leave the load factors nothing to share
    "load step at 0": (MatrixSpec(load_factors=(0.85, 1.15), tau=0.1, step_time=0.0,
                                  duration=0.2),
                       (None, 1000, 1000, 1000, 1000) * 2, 12010, 12010),
    # load factor 25 diverges at 0.1236 s: its normal cell resumes at the load
    # step, but hands out no fork at the onset, so its attacked cells run in full
    "a load factor that diverges": (MatrixSpec(load_factors=(1.0, 25.0), tau=0.2,
                                               step_time=0.1, duration=0.3),
                                    FULL_AND_4 + (1000,) + (None,) * 4, 12190, 13190),
}


@pytest.mark.parametrize("name", FORK_MATRICES)
def test_gen_data_writes_the_csv_of_each_straight_run(tmp_path, monkeypatch, name):
    spec, first, steps, onset_only_steps = FORK_MATRICES[name]
    starts = {}
    inner = datagen.run_scenario

    def recorded(cfg, *args, **kwargs):
        starts[cfg.scenario_id] = cfg.start and cfg.start.step
        return inner(cfg, *args, **kwargs)

    monkeypatch.setattr(datagen, "run_scenario", recorded)
    entries = {e["id"]: e for e in gen_data(str(tmp_path), spec)}
    cells = training_matrix(spec)
    assert len(cells) == len(first)
    for (cfg, _), start in zip(cells, first):
        straight = run_scenario(cfg)
        e = entries[cfg.scenario_id]
        assert (tmp_path / e["file"]).read_text() \
            == csv_text(straight, tmp_path / "straight.csv"), cfg.scenario_id
        assert e["status"] == ("ok" if not straight.diverged
                               else f"diverged at t={straight.diverged_time:.6f}")
        assert starts[cfg.scenario_id] == start, cfg.scenario_id
        assert (e["resumed_from"] is None if start is None
                else e["resumed_from"]["step"] == start)
    assert sum(e["steps"] for e in entries.values()) == steps <= onset_only_steps
    if name == "diverged before the fork":
        assert all(e["status"] == "diverged at t=0.076500" for e in entries.values())


def matrix_spec(d) -> MatrixSpec:
    return ConfigReader(d, "matrix").build(MatrixSpec)


def test_matrix_spec_from_dict():
    spec = matrix_spec({"load_factors": [1.0], "tau": 0.4, "duration": 0.8})
    assert spec.load_factors == (1.0,)
    assert spec.alphas == (0.25, 0.5)  # defaults survive partial overrides
    assert spec.tau == 0.4
    # no cell draws random numbers, so there is no seed to set
    with pytest.raises(ScenarioError, match=r"unknown matrix fields: \['seed'\]"):
        matrix_spec({"seed": 1})
    with pytest.raises(ScenarioError, match=r"matrix must be a mapping, got \[\{'tau': 0.4\}\]"):
        matrix_spec([{"tau": 0.4}])
    with pytest.raises(ScenarioError, match=r"unknown matrix fields: \['1', 'a'\]"):
        matrix_spec({1: 2, "a": 3})
    # a YAML boolean is no number: tau: true read as 1.0
    with pytest.raises(ScenarioError, match="field 'tau' in matrix must be a number, got True"):
        matrix_spec({"tau": True})
    with pytest.raises(ScenarioError, match="matrix alphas entry 1 must be a number, got False"):
        matrix_spec({"alphas": [False]})
    # no load factor is no cell: gen-data wrote an empty manifest and exited 0
    with pytest.raises(ScenarioError, match="matrix load_factors must hold at least one value"):
        matrix_spec({"load_factors": []})
    assert matrix_spec({"alphas": [], "betas": []}).alphas == ()


SCALARS = st.none() | st.booleans() | st.text(max_size=4) | st.integers() | st.floats()
MATRIX_FIELDS = ["load_factors", "alphas", "betas", "freq_hz", "tau", "step_time",
                 "duration", "seed"]


@settings(deadline=None)
@given(st.dictionaries(st.sampled_from(MATRIX_FIELDS),
                       SCALARS | st.lists(SCALARS | st.lists(SCALARS, max_size=2),
                                          max_size=3)))
def test_matrix_spec_from_dict_raises_only_scenario_error(d):
    try:
        spec = matrix_spec(d)
    except ScenarioError:
        return
    for name in MATRIX_FIELDS[:3]:
        assert all(isinstance(x, float) for x in getattr(spec, name))
    assert all(isinstance(getattr(spec, name), float) for name in MATRIX_FIELDS[3:-1])


def test_gen_data_outputs(data_dir):
    with open(os.path.join(data_dir, "manifest.json")) as fh:
        entries = json.load(fh)
    assert len(entries) == 3
    assert all(e["status"] == "ok" for e in entries)
    for e in entries:
        assert os.path.exists(os.path.join(data_dir, e["file"]))
        assert e["v_ref"] == 1.0
        assert set(e) == {"id", "file", "attacked", "clean_ref", "v_ref",
                          "w_ref", "resumed_from", "steps", "status"}
    normal = next(e for e in entries if not e["attacked"])
    assert normal["clean_ref"] == normal["id"]
    attacked = [e for e in entries if e["attacked"]]
    assert len(attacked) == 2
    assert all(e["clean_ref"] == normal["id"] for e in attacked)


def test_load_runs_pairs_attacked_with_clean(data_dir):
    runs = load_runs(data_dir)
    assert len(runs) == 3
    for trace, clean, run_id in runs:
        assert clean.v_ref == 1.0
        assert not clean.attack_active.any()
        if trace.attack_active.any():
            assert trace is not clean
        else:
            assert trace is clean


def whole_parses(data_dir) -> dict:
    """Each ok run's trace data from a parse of its CSV alone, by run id."""
    entries = json.loads((Path(data_dir) / "manifest.json").read_text())
    return {e["id"]: parse_csv(os.path.join(data_dir, e["file"])).data
            for e in entries if e["status"] == "ok"}


def assert_loads_whole_parses(data_dir):
    whole = whole_parses(data_dir)
    runs = load_runs(str(data_dir))
    assert len(runs) == len(whole)
    for trace, _, run_id in runs:
        assert np.array_equal(trace.data, whole[run_id]), run_id


@pytest.mark.parametrize("spec", [GEN_MATRIX, GEN_MATRIX_EARLY,
                                  MatrixSpec(load_factors=(0.85, 1.15))],
                         ids=["gen-matrix", "gen-matrix-early", "two-load-default"])
def test_load_runs_reads_the_data_of_whole_parses(tmp_path, spec):
    # a resumed run's CSV head is read from the run it resumed from
    entries = gen_data(str(tmp_path), spec)
    assert sum(e["resumed_from"] is not None for e in entries) == len(entries) - 1
    assert_loads_whole_parses(tmp_path)


def test_load_runs_parses_each_run_file_once(data_dir, monkeypatch):
    # one call per ok run file, with the file of the run it resumed from as its head
    calls = []
    inner = datagen.parse_csv

    def counted(path, head=None):
        calls.append((os.path.basename(path), head and os.path.basename(head[0])))
        return inner(path, head)

    monkeypatch.setattr(datagen, "parse_csv", counted)
    load_runs(data_dir)
    entries = json.loads((Path(data_dir) / "manifest.json").read_text())
    files = {e["id"]: e["file"] for e in entries}
    assert calls == [(e["file"], e["resumed_from"] and files[e["resumed_from"]["id"]])
                     for e in entries if e["status"] == "ok"]
    assert [head for _, head in calls] == [None, "load1-normal.csv", "load1-normal.csv"]


def copy_data(data_dir, work: Path) -> list[dict]:
    shutil.copytree(data_dir, work)
    return json.loads((work / "manifest.json").read_text())


def edit_line(path: Path, k: int, edit) -> None:
    lines = path.read_text().split("\n")
    lines[k] = edit(lines[k])
    path.write_text("\n".join(lines))


def test_parse_csv_copies_the_rows_of_the_lines_a_head_shares(data_dir):
    # a marked copy of the source's rows shows which rows were copied: those
    # before the onset row (400), whose attack_active the source does not share
    normal, attacked = (os.path.join(data_dir, name) for name in
                        ("load1-normal.csv", "load1-nonperiodic-a0.5.csv"))
    marked = parse_csv(normal)
    marked.data += 1.0
    resumed = parse_csv(attacked, head=(normal, marked))
    whole = parse_csv(attacked).data
    np.testing.assert_array_equal(resumed.data[:400], whole[:400] + 1.0)
    np.testing.assert_array_equal(resumed.data[400:], whole[400:])
    assert whole[400, -1] == 1 and not whole[:400, -1].any()


def test_a_blank_line_that_both_files_share_ends_the_copied_head(data_dir, tmp_path):
    # np.loadtxt skips a blank line: past it, line k no longer holds row k - 1
    normal, attacked = (tmp_path / name for name in
                        ("load1-normal.csv", "load1-nonperiodic-a0.5.csv"))
    for path in (normal, attacked):
        shutil.copy(os.path.join(data_dir, path.name), path)
        edit_line(path, 301, lambda row: "\n" + row)
    resumed = parse_csv(attacked, head=(normal, parse_csv(normal)))
    assert resumed.data.tobytes() == parse_csv(attacked).data.tobytes()


def test_an_edited_head_row_is_read_from_its_file(data_dir, tmp_path):
    entries = copy_data(data_dir, tmp_path / "data")
    normal, nonperiodic, periodic = (tmp_path / "data" / e["file"] for e in entries)
    assert entries[1]["resumed_from"] == {"id": "load1-normal", "step": 4000}
    # split line k holds row k - 1; rows up to 400 are in the head each attacked file copied
    edit_line(nonperiodic, 101, lambda row: row.replace(row.split(",")[1], "0.5", 1))
    edit_line(normal, 201, lambda row: row.replace(row.split(",")[2], "7", 1))
    edit_line(periodic, 301, lambda row: "\n" + row)   # a blank line before row 300
    runs = {run_id: trace for trace, _, run_id in load_runs(str(tmp_path / "data"))}
    assert runs["load1-nonperiodic-a0.5"].dg["v"][100, 0] == 0.5
    assert runs["load1-normal"].dg["w"][200, 0] == 7
    assert runs["load1-periodic-b0.5"].dg["w"][200, 0] != 7
    assert_loads_whole_parses(tmp_path / "data")


@pytest.mark.parametrize("hint", ["drop", "load1-normal", {}, {"id": "gone"}, {"id": "failed"},
                                  {"id": "load1-nonperiodic-a0.5"}, {"id": ["load1-normal"]}])
def test_a_wrong_resumed_from_loads_the_same_data(data_dir, tmp_path, hint):
    # the hint names the run whose rows to try; a wrong one costs time, never data
    entries = copy_data(data_dir, tmp_path / "data")
    for e in entries[1:]:
        if hint == "drop":
            del e["resumed_from"]
        else:
            e["resumed_from"] = hint
    entries.append(dict(entries[0], id="failed", status="error: no file"))
    (tmp_path / "data" / "manifest.json").write_text(json.dumps(entries))
    whole = whole_parses(data_dir)
    runs = load_runs(str(tmp_path / "data"))
    assert [run_id for _, _, run_id in runs] == list(whole)
    for trace, _, run_id in runs:
        assert trace.data.tobytes() == whole[run_id].tobytes(), run_id


def test_a_bad_cell_in_a_resumed_files_own_rows_names_its_line(data_dir, tmp_path):
    entries = copy_data(data_dir, tmp_path / "data")
    path = tmp_path / "data" / entries[1]["file"]
    edit_line(path, 600, lambda row: row.replace(",", ",x,", 1))   # row 599: past the fork
    with pytest.raises(TraceFormatError) as whole:
        parse_csv(path)
    assert "line 601:" in str(whole.value)   # the file's own line number
    with pytest.raises(TraceFormatError) as resumed:
        load_runs(str(tmp_path / "data"))
    assert str(resumed.value) == str(whole.value)


# two load factors whose attacked cells start at 0.4 s, after the load step
WRONG_LOAD = MatrixSpec(load_factors=(0.85, 1.15), alphas=(0.5,), betas=(), duration=0.8,
                        step_time=0.2, tau=0.4)


def clean_ref_of_another_load(out: Path) -> Path:
    """gen-data output of ``WRONG_LOAD`` whose attacked load factor 1.15 run names
    the normal run of load factor 0.85 as its clean reference."""
    entries = gen_data(str(out), WRONG_LOAD)
    for e in entries:
        if e["id"] == "load1.15-nonperiodic-a0.5":
            e["clean_ref"] = "load0.85-normal"
    (out / "manifest.json").write_text(json.dumps(entries))
    return out


def test_a_clean_reference_of_another_load_is_rejected(tmp_path):
    # it was built into 4 206 rows whose targets were the other load's V_n
    runs = load_runs(str(clean_ref_of_another_load(tmp_path)))
    with pytest.raises(DatasetError, match=r"^clean reference for load1.15-nonperiodic-a0.5 "
                                           r"differs from it before the attack, first at "
                                           r"t=0.200000s$"):
        build_dataset(runs)
    # the pairs that gen-data wrote differ nowhere before the attack
    runs[-1] = (runs[-1][0], runs[-2][1], runs[-1][2])
    assert len(build_dataset(runs)) == 4206


def test_dataset_row_count(data_dir):
    ds = build_dataset(load_runs(data_dir))
    # 0.8 s at 1 ms = 801 samples, 701 after the 0.1 s discard;
    # normal contributes 701 rows, each attacked run 2 * 701
    assert len(ds) == 701 + 2 * 2 * 701
    assert ds.attacked.sum() == 4 * 701
    # clean slots of normal rows equal the received slots
    normal_rows = ~ds.attacked
    np.testing.assert_array_equal(ds.x[normal_rows, :3], ds.x[normal_rows, 3:6])
    assert (ds.x[:, 6] == 1.0).all()


def test_train_pipeline_runs(data_dir, tmp_path):
    params, report = train(build_dataset(load_runs(data_dir)), TrainConfig(max_epochs=40, seed=0))
    assert len(report.train_mse) <= 40
    assert report.best_val_mse < report.val_mse[0]
    assert np.isfinite(params.w1).all()


def test_gen_data_records_failures(tmp_path):
    # an unconditionally destabilizing matrix cell must not abort the batch
    bad = MatrixSpec(load_factors=(1.0,), alphas=(-0.999,), betas=(),
                     tau=0.1, step_time=0.05, duration=0.8)
    entries = gen_data(str(tmp_path / "bad"), bad)
    by_status = {e["id"]: e["status"] for e in entries}
    assert by_status["load1-normal"] == "ok"
    assert by_status["load1-nonperiodic-a-0.999"].startswith("diverged")


# a valid gen-data directory with its manifest fields edited, every column of
# one CSV whose name holds a fragment dropped, and one cell of one CSV replaced
# (a header cell about half the time: a column renamed); the oracle is that
# only ValueError escapes, which is what the CLI turns into exit 1
# (cli.CONFIG_ERRORS)
WRONG = (st.none() | st.booleans() | st.text(max_size=4) | st.integers() | st.floats()
         | st.sampled_from([10**400, "", ".", "manifest.json", "missing.csv"])
         | st.lists(st.integers(), max_size=2) | st.just({}))
MANIFEST_EDIT = st.tuples(st.integers(0, 2), st.sampled_from(
    ["id", "file", "status", "clean_ref", "v_ref", "w_ref", "resumed_from"]), st.booleans(),
    WRONG)
CELL = (st.text(max_size=4) | st.sampled_from(
    ["", "nan", "inf", "-inf", "1e999", "0.5", "2", "-1", "1,2", "t", "dg1.v", "\n",
     "dg5.v", "load1.I", "ch.dg2->dg1.frequency.recv", "ch.dg5->dg1.voltage.recv"]))
# "." drops every column but t and attack_active, "dg" every DG column
FRAGMENT = st.sampled_from([".", "dg", "dg1.", "dg4.", ".Vn", "ch.", "->dg1.voltage", "load"])


@settings(deadline=None, max_examples=150)
@given(edits=st.lists(MANIFEST_EDIT, max_size=2), whole=st.integers(0, 19),
       cut=st.tuples(st.integers(0, 2), FRAGMENT) | st.none(),
       cell=st.tuples(st.integers(0, 2), st.just(0) | st.integers(0, 800), st.integers(0, 60),
                      CELL) | st.none())
def test_load_runs_raises_only_value_errors(data_dir, tmp_path_factory, edits, whole, cut,
                                            cell):
    work = tmp_path_factory.mktemp("fuzz")
    source = Path(data_dir)
    entries = json.loads((source / "manifest.json").read_text())
    files = [e["file"] for e in entries]
    for k, key, drop, value in edits:
        if drop:
            entries[k].pop(key, None)
        else:
            entries[k][key] = value
    # one manifest in twenty is not a list, and one holds a run that is not a mapping
    manifest = {7: {"runs": entries}, 8: entries[:1] + [3]}.get(whole, entries)
    (work / "manifest.json").write_text(json.dumps(manifest))
    edited = {e[0] for e in (cut, cell) if e is not None}
    for k, name in enumerate(files):
        if k not in edited:
            shutil.copyfile(source / name, work / name)
            continue
        lines = (source / name).read_text().split("\n")
        if cut is not None and cut[0] == k:   # lines[-1] is the empty text after the last row
            keep = [j for j, col in enumerate(lines[0].split(",")) if cut[1] not in col]
            lines = [",".join([row[j] for j in keep]) for row in
                     (line.split(",") for line in lines[:-1])] + [""]
        if cell is not None and cell[0] == k:
            cells = lines[cell[1]].split(",")
            cells[cell[2] % len(cells)] = cell[3]
            lines[cell[1]] = ",".join(cells)
        (work / name).write_text("\n".join(lines))
    try:
        build_dataset(load_runs(str(work)))
    except ValueError:
        pass
