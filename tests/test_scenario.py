import math
import textwrap

import numpy as np
import pytest

from mgres.attack import NonPeriodic, Periodic
from mgres.scenario import (BUILTIN_SCENARIOS, LoadEvent, ScenarioConfig,
                            ScenarioError, builtin_scenario, from_dict,
                            load_scenario)


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
    model.write_text("mgres-mlp 1 7 10 1\n" + "\n".join("0" for _ in range(8)))
    cfg = builtin_scenario("default-nonperiodic", ann_model=str(model))
    assert cfg.controllers == ("ann", "pi", "pi", "pi")
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
    import yaml
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


@pytest.mark.parametrize("override, msg", [
    ({"duration": -1.0}, "duration"),
    ({"dt": 0.0}, "dt must be positive"),
    ({"sample_period": 5e-5}, "below the integrator step"),
    ({"sample_period": 2.5e-4}, "integer multiple"),
])
def test_timing_validation(override, msg):
    base = {"duration": 1.0}
    base.update(override)
    with pytest.raises(ScenarioError, match=msg):
        from_dict(base)


def test_controller_validation():
    with pytest.raises(ScenarioError, match="need 4 controller entries"):
        from_dict({"duration": 1.0, "controllers": ["pi", "pi"]})
    with pytest.raises(Exception, match="unknown controller"):
        from_dict({"duration": 1.0, "controller": "fuzzy"})
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


def test_config_is_immutable_and_sorted():
    cfg = ScenarioConfig(
        scenario_id="x", duration=1.0,
        model=builtin_scenario("default").model,
        graph=builtin_scenario("default").graph,
        load_events=(LoadEvent(0.7, 0, 0.4, 0.15), LoadEvent(0.2, 2, 0.4, 0.15)))
    assert [e.t for e in cfg.load_events] == [0.2, 0.7]
    with pytest.raises(Exception):
        cfg.duration = 2.0
