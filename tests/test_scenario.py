import math
import textwrap
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from mgres.ann import MlpParams, TrainConfig, load_model
from mgres.attack import NonPeriodic, Periodic
from mgres.datagen import MatrixSpec
from mgres.scenario import (BUILTIN_SCENARIOS, LoadEvent, RunStart, ScenarioConfig,
                            ScenarioError, builtin_scenario, from_dict,
                            load_scenario, read_yaml)
from test_ann import model_text_with
from test_golden import PARAMS


def test_builtin_names():
    assert BUILTIN_SCENARIOS == ("default", "default-nonperiodic", "default-periodic")
    with pytest.raises(ScenarioError, match="unknown built-in"):
        builtin_scenario("nope")


def test_default_scenario_shape():
    cfg = builtin_scenario("default")
    assert cfg.duration == 4.0 and cfg.dt == 1e-4 and cfg.sample_period == 1e-3
    assert cfg.controllers == ("pi", "pi", "pi", "pi")
    assert cfg.attacks == ()
    assert cfg.v_ref == 1.0
    assert cfg.w_ref == pytest.approx(2 * math.pi * 60)
    assert cfg.sample_stride == 10
    assert cfg.n_steps == 40000


def test_builtin_attack_scenarios():
    np_cfg = builtin_scenario("default-nonperiodic")
    (atk,) = np_cfg.attacks
    assert atk.src == "broadcast" and atk.dst == 0 and atk.signal == "voltage"
    assert atk.kind == NonPeriodic(alpha=0.5) and atk.tau == 2.0

    p_cfg = builtin_scenario("default-periodic")
    (atk,) = p_cfg.attacks
    assert atk.kind.beta == 0.5
    assert atk.kind.omega == pytest.approx(2 * math.pi * 60)


def test_ann_model_wiring(tmp_path):
    model = tmp_path / "m.txt"
    model.write_text(model_text_with(8, "1"))
    cfg = builtin_scenario("default-nonperiodic", ann_model=str(model))
    assert cfg.controllers == ("ann", "pi", "pi", "pi")
    assert isinstance(cfg.ann_model, MlpParams)
    assert cfg.ann_model.w1.tobytes() == load_model(model).w1.tobytes()
    with pytest.raises(ScenarioError, match="not found"):
        builtin_scenario("default", ann_model=str(tmp_path / "missing.txt"))


YAML_FULL = textwrap.dedent("""\
    duration: 0.5
    dt: 1.0e-4
    sample_period: 1.0e-3
    references: {voltage: 1.0, frequency_hz: 60}
    gains: {c_v: 4.0, c_w: 6.0}
    graph:
      edges: [[1, 2], [2, 1], [2, 3, 0.5], [3, 2], [3, 4], [4, 3], [4, 1], [1, 4]]
      pinning: [1, 0, 0, 0]
    load_events:
      - {t: 0.2, bus: 1, r: 0.4, x: 0.15}
    attacks:
      - {target: "broadcast -> dg1.voltage", kind: nonperiodic, alpha: 0.5, tau: 0.3}
      - {target: "dg2.voltage -> dg1", kind: periodic, beta: 0.25, freq_hz: 60, tau: 0.3, end: 0.4}
    """)


def test_yaml_full_round(tmp_path):
    cfg = from_dict(yaml.safe_load(YAML_FULL), scenario_id="full")
    assert cfg.gains.c_v == 4.0 and cfg.gains.c_w == 6.0
    assert cfg.graph.adjacency[2, 1] == 0.5  # dg2 -> dg3 edge, 0-based [to, from]
    assert cfg.load_events == (LoadEvent(t=0.2, bus=0, r=0.4, x=0.15),)
    a0, a1 = cfg.attacks
    assert a0.src == "broadcast" and a0.dst == 0
    assert isinstance(a1.kind, Periodic) and a1.end == 0.4
    assert a1.src == 1 and a1.dst == 0

    path = tmp_path / "full.yaml"
    path.write_text(YAML_FULL)
    cfg2 = load_scenario(str(path))
    assert cfg2.scenario_id == "full"
    assert cfg2.attacks == cfg.attacks


def test_unknown_fields_rejected():
    with pytest.raises(ScenarioError, match="unknown scenario fields"):
        from_dict({"duration": 1.0, "durations": 2.0})
    with pytest.raises(ScenarioError, match="missing required field 'duration'"):
        from_dict({})
    with pytest.raises(ScenarioError, match="mapping"):
        from_dict([1, 2])
    # the simulator draws no random numbers, so there is no seed to set
    with pytest.raises(ScenarioError, match="unknown scenario fields: \\['seed'\\]"):
        from_dict({"duration": 1.0, "seed": 3})
    # every nested mapping is read the same way
    with pytest.raises(ScenarioError, match=r"unknown gains fields: \['c_V'\]"):
        from_dict({"duration": 1.0, "gains": {"c_V": 10}})
    # a misspelt required key is named as unknown before the missing one
    with pytest.raises(ScenarioError, match=r"unknown load event 1 fields: \['time'\]"):
        from_dict({"duration": 1.0, "load_events": [{"time": 0.5, "bus": 1, "r": 0.4, "x": 0.1}]})
    with pytest.raises(ScenarioError, match="missing required field 't' in load event 1"):
        from_dict({"duration": 1.0, "load_events": [{"bus": 1, "r": 0.4, "x": 0.1}]})
    with pytest.raises(ScenarioError, match="references takes frequency_hz or frequency, not both"):
        from_dict({"duration": 1.0, "references": {"frequency_hz": 60, "frequency": 377}})
    # "controller: ann" beside a controllers list was dropped: the run was all-PI
    with pytest.raises(ScenarioError, match="scenario takes controller or controllers, not both"):
        from_dict({"duration": 1.0, "controllers": ["pi"] * 4, "controller": "ann",
                   "ann_model": "m.txt"})


@pytest.mark.parametrize("doc, field, where", [
    ({"plant": {"n_bus": 2, "dg_bus": [1], "dgs": [{}],
                "lines": [{"to": 2, "r": 0.05, "x": 0.1}], "loads": []}},
     "from", "plant line 1"),
    ({"plant": {"n_bus": 2, "dg_bus": [1], "dgs": [{}],
                "lines": [{"from": 1, "to": 2, "r": 0.05, "x": 0.1}],
                "loads": [{"bus": 2, "r": 0.8}]}},
     "x", "plant load 1"),
    ({"load_events": [{"t": 0.5, "bus": 1, "r": 0.4, "x": 0.15},
                      {"t": 0.5, "r": 0.4, "x": 0.15}]},
     "bus", "load event 2"),
    ({"load_events": ["bus 1"]}, "t", "load event 1"),
])
def test_missing_entry_fields(doc, field, where):
    with pytest.raises(ScenarioError,
                       match=f"missing required field '{field}' in {where}"):
        from_dict(dict(doc, duration=1.0))


def test_entry_must_be_a_mapping():
    with pytest.raises(ScenarioError, match="in load event 1, which must be a mapping, got 'bus 1'"):
        from_dict({"duration": 1.0, "load_events": ["bus 1"]})
    with pytest.raises(ScenarioError, match="in plant line 2, which must be a mapping, got 3"):
        from_dict({"duration": 1.0, "plant": {"n_bus": 2, "dg_bus": [1], "dgs": [{}],
                                              "lines": [{"from": 1, "to": 2, "r": 0.1, "x": 0.1}, 3],
                                              "loads": []}})


def test_plant_needs_a_dg():
    # ring_graph(0) raised an IndexError before
    with pytest.raises(ValueError, match="at least one DG"):
        from_dict({"duration": 1.0, "plant": {"n_bus": 1, "dg_bus": [], "dgs": [],
                                              "lines": [], "loads": []}})


@pytest.mark.parametrize("override, msg", [
    ({"duration": -1.0}, "duration"),
    ({"dt": 0.0}, "dt must be positive"),
    ({"sample_period": 5e-5}, "below the integrator step"),
    ({"sample_period": 2.5e-4}, "integer multiple"),
    # an OverflowError and a NaN ValueError that named no field
    ({"sample_period": math.inf}, "sample_period must be positive and finite, got inf"),
    ({"duration": math.nan}, "duration must be positive and finite, got nan"),
])
def test_timing_validation(override, msg):
    base = {"duration": 1.0}
    base.update(override)
    with pytest.raises(ScenarioError, match=msg):
        from_dict(base)


FLAT = RunStart.flat(4, 1.0, 2 * math.pi * 60)


@pytest.mark.parametrize("start, msg", [
    (replace(FLAT, step=5), r"run start step 5 is not a sample step \(every 10 steps\)"),
    (replace(FLAT, step=-10), r"run start step -10 must be a whole number in \[0, 10000\]"),
    (replace(FLAT, step=10010), r"run start step 10010 must be a whole number in \[0, 10000\]"),
    (replace(FLAT, step=20.0), r"run start step 20.0 must be a whole number"),
    (replace(FLAT, step=True), r"run start step True must be a whole number"),
    (replace(FLAT, delta=(0.0,) * 3), "run start must hold 4 angles, 4 \\[P, Q\\] pairs"),
    (replace(FLAT, pq=((0.0, 0.0),) * 5), "run start must hold 4 angles"),
    (replace(FLAT, pq=((0.0, 0.0, 0.0),) * 4), "run start must hold 4 angles"),
    (replace(FLAT, setpoints=FLAT.setpoints[:1]), "run start must hold 4 angles"),
    (replace(FLAT, setpoints=((1.0,) * 3, FLAT.setpoints[1])), "run start must hold 4 angles"),
])
def test_run_start_validation(start, msg):
    cfg = builtin_scenario("default", duration=1.0)
    with pytest.raises(ScenarioError, match=msg):
        replace(cfg, start=start)


def test_a_run_start_shortens_the_run():
    cfg = builtin_scenario("default", duration=1.0)
    assert cfg.start is None and cfg.n_steps == cfg.last_step == 10000
    for step in (0, 2500, 10000):
        resumed = replace(cfg, start=replace(FLAT, step=step))
        assert (resumed.last_step, resumed.n_steps) == (10000, 10000 - step)
    assert FLAT.setpoints == ((1.0,) * 4, (2 * math.pi * 60,) * 4)
    assert all(type(x) is float for row in RunStart.flat(2, 1, 377).setpoints for x in row)


def test_controller_validation():
    with pytest.raises(ScenarioError, match="need 4 controller entries"):
        from_dict({"duration": 1.0, "controllers": ["pi", "pi"]})
    with pytest.raises(ScenarioError, match="unknown controller 'fuzzy'"):
        from_dict({"duration": 1.0, "controller": "fuzzy"})
    cfg = builtin_scenario("default")
    for names in (("pi",) * 4, ("ann", "pi", "pi", "pi")):
        assert replace(cfg, controllers=names, ann_model=PARAMS).controllers == names
    with pytest.raises(ScenarioError,
                       match=r"^unknown controller 'pid'; expected one of \('pi', 'ann'\)$"):
        replace(cfg, controllers=("pi", "pid", "pi", "pi"))
    with pytest.raises(ScenarioError, match="requires an ann_model"):
        from_dict({"duration": 1.0, "controller": "ann"})


def test_attack_and_event_cross_validation():
    with pytest.raises(ScenarioError, match="no load"):
        from_dict({"duration": 1.0,
                   "load_events": [{"t": 0.5, "bus": 2, "r": 0.4, "x": 0.15}]})
    with pytest.raises(ScenarioError, match="matches no channel"):
        # DG3 does not feed DG1 in the ring
        from_dict({"duration": 1.0,
                   "attacks": [{"target": "dg3.voltage -> dg1",
                                "kind": "nonperiodic", "alpha": 0.5, "tau": 0.5}]})
    with pytest.raises(ScenarioError, match="needs freq_hz or omega"):
        from_dict({"duration": 1.0,
                   "attacks": [{"target": "broadcast -> dg1.voltage",
                                "kind": "periodic", "beta": 0.5, "tau": 0.5}]})


def test_graph_plant_size_mismatch():
    with pytest.raises(ScenarioError, match="graph has 2 DGs"):
        from_dict({"duration": 1.0,
                   "graph": {"edges": [[1, 2], [2, 1]], "pinning": [1, 0]}})


def test_load_scenario_unknown_source(tmp_path):
    with pytest.raises(ScenarioError, match="neither a built-in name"):
        load_scenario(str(tmp_path / "nowhere.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration: [unclosed")
    with pytest.raises(ScenarioError, match="cannot parse"):
        load_scenario(str(bad))


@pytest.mark.parametrize("text, message", [
    (b"duration: [unclosed\n", "line 2, column 1: "),
    (b"- !!python/object:os.system {}\n",   # a safe loader builds no Python object
     "line 1, column 3: could not determine a constructor for the tag"),
    (b"duration: \x07\n", "unacceptable character #x0007"),   # a control character
    (b"duration: \xff\n", "unacceptable character #x00ff"),   # not UTF-8
    (b"duration: 2001-13-45\n", "month must be in 1..12"),    # a ValueError in the constructor
    (b"duration: !!int one\n", "invalid literal for int() with base 10: 'one'"),
])
def test_read_yaml_errors_are_one_line(tmp_path, text, message):
    path = tmp_path / "bad.yaml"
    path.write_bytes(text)
    with pytest.raises(ScenarioError) as exc:
        read_yaml(str(path), "scenario")
    assert str(exc.value).startswith(f"cannot parse {path}: {message}")
    assert "\n" not in str(exc.value)


def test_config_is_immutable_and_sorted():
    cfg = ScenarioConfig(
        scenario_id="x", duration=1.0,
        model=builtin_scenario("default").model,
        graph=builtin_scenario("default").graph,
        load_events=(LoadEvent(0.7, 0, 0.4, 0.15), LoadEvent(0.2, 2, 0.4, 0.15)))
    assert [e.t for e in cfg.load_events] == [0.2, 0.7]
    with pytest.raises(Exception):
        cfg.duration = 2.0


# documents built from the schema's keys; one value in twenty has a wrong type,
# and one mapping in twenty has a key outside the schema (drawn as 7 of 0..19,
# since hypothesis draws the bounds far more often than one in twenty)
WRONG = (st.none() | st.booleans() | st.text(max_size=3) | st.integers()
         | st.floats() | st.lists(st.integers(), max_size=2) | st.just({}))
NUM = st.integers(-1, 4) | st.floats(-1.0, 2.0) | st.sampled_from(
    [math.inf, -math.inf, math.nan, 10**400])
STEP = st.sampled_from([1e-4, 1e-3, 0.0, math.inf, math.nan])


def mapping(schema: dict, required=()) -> st.SearchStrategy:
    """Mappings with the ``required`` keys of ``schema`` and some of the others."""
    def draw(keys, n):
        values = {k: st.integers(0, 19).flatmap(lambda i, k=k: WRONG if i == 7 else schema[k])
                  for k in (*required, *keys)}
        return st.fixed_dictionaries(dict(values, typo=WRONG) if n == 7 else values)
    optional = [k for k in schema if k not in required]
    some = st.lists(st.sampled_from(optional), unique=True) if optional else st.just([])
    return st.tuples(some, st.integers(0, 19)).flatmap(lambda t: draw(*t))


def entries(*keys: str) -> st.SearchStrategy:
    return st.lists(mapping(dict.fromkeys(keys, NUM), keys), max_size=3)


SCENARIO = mapping({
    "duration": NUM, "dt": STEP, "sample_period": STEP,
    "references": mapping(dict.fromkeys(("voltage", "frequency", "frequency_hz"), NUM)),
    "gains": mapping({"c_v": NUM, "c_w": NUM}),
    "controller": st.sampled_from(["pi", "ann", "x"]),
    "controllers": st.lists(st.sampled_from(["pi", "ann"]), max_size=4),
    "ann_model": st.text(max_size=3), "id": st.text(max_size=3),
    "plant": mapping({"n_bus": NUM, "dg_bus": st.lists(NUM, max_size=4),
                      "dgs": st.lists(mapping(dict.fromkeys(("m_p", "n_q", "omega_c"), NUM)),
                                      max_size=4),
                      "lines": entries("from", "to", "r", "x"),
                      "loads": entries("bus", "r", "x")},
                     ("n_bus", "dg_bus", "dgs", "lines", "loads")),
    "graph": mapping({"edges": st.lists(st.lists(NUM, max_size=3), max_size=4),
                      "pinning": st.lists(NUM, max_size=4)}, ("edges", "pinning")),
    "load_events": entries("t", "bus", "r", "x"),
    "attacks": st.lists(mapping({
        "target": st.sampled_from(["broadcast -> dg1.voltage", "dg2.voltage -> dg1", "dg1"]),
        "kind": st.sampled_from(["nonperiodic", "periodic", "ramp"]),
        **dict.fromkeys(("alpha", "beta", "freq_hz", "omega", "tau", "end"), NUM)},
        ("target", "kind", "tau")), max_size=2),
}, ("duration",))


@settings(deadline=None, max_examples=300)
@given(SCENARIO)
def test_from_dict_raises_only_value_errors(d):
    # ValueError is what the CLI turns into exit 1 (cli.CONFIG_ERRORS)
    try:
        cfg = from_dict(d)
    except ValueError:
        return
    assert isinstance(cfg, ScenarioConfig)


# the other two YAML documents: a gen-data matrix and a training config
DOCUMENT = SCENARIO | st.sampled_from([MatrixSpec, TrainConfig]).flatmap(
    lambda cls: mapping({f.name: st.lists(NUM, max_size=3) if isinstance(f.default, tuple)
                         else NUM for f in fields(cls)}))


def same(a, b) -> bool:
    """a == b with nan equal to nan, and 1 never equal to 1.0 or True."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b or (a != a and b != b)


@pytest.fixture(scope="module")
def yaml_file(tmp_path_factory):
    return tmp_path_factory.mktemp("yaml") / "doc.yaml"


@settings(deadline=None, max_examples=200)
@given(DOCUMENT, st.booleans())
def test_read_yaml_builds_what_the_pure_python_loader_builds(yaml_file, d, flow):
    # read_yaml parses with libyaml when PyYAML has it
    text = yaml.safe_dump(d, default_flow_style=flow)
    yaml_file.write_text(text)
    assert same(read_yaml(str(yaml_file), "scenario"), yaml.load(text, Loader=yaml.SafeLoader))


EDIT = st.tuples(st.integers(0, 10**6), st.sampled_from(["insert", "drop", "replace"]),
                 st.sampled_from(list(":-[]{},#&*!|>'\"%@`?\t\n ")) | st.characters())


@settings(deadline=None, max_examples=300)
@given(DOCUMENT, st.booleans(), st.lists(EDIT, min_size=1, max_size=4))
def test_read_yaml_raises_only_scenario_error(yaml_file, d, flow, edits):
    text = yaml.safe_dump(d, default_flow_style=flow)
    for pos, op, char in edits:
        k = pos % (len(text) + 1)
        text = text[:k] + ("" if op == "drop" else char) + text[k + (op != "insert"):]
    # a lone surrogate is written as the bytes of no UTF-8 character
    yaml_file.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        read_yaml(str(yaml_file), "scenario")
    except ScenarioError as exc:
        assert str(yaml_file) in str(exc) and "\n" not in str(exc)
