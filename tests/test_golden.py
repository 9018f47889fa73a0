"""Golden-trace regression: the engine must reproduce a recorded reference.

Each built-in scenario runs for 1 s with the attack onset moved to 0.5 s,
once with the baseline controller on every DG and once with a fixed MLP on
DG1.  Every 20 ms the fixture holds dg.v, dg.Vn and DG1's received voltage
triple.  Regenerate (only when a change to the traces is intended) with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mgres.ann import MlpParams, NormalizationSpec
from mgres.scenario import BUILTIN_SCENARIOS, builtin_scenario
from mgres.simulate import run_scenario
from mgres.trace import dg1_voltage_triple

FIXTURE = Path(__file__).parent / "fixtures" / "golden_traces.json"
DURATION = 1.0
TAU = 0.5
EVERY = 20  # samples of 1 ms
CASES = [(name, ctrl) for name in BUILTIN_SCENARIOS for ctrl in ("pi", "ann")]

# closed-form weights: the set-point stays near 1 pu and depends on all inputs
PARAMS = MlpParams(
    w1=0.3 * np.sin(np.arange(70.0)).reshape(10, 7),
    b1=0.1 * np.cos(np.arange(10.0)),
    w2=0.2 * np.sin(0.5 + np.arange(10.0)).reshape(1, 10),
    b2=np.array([0.05]),
    norm=NormalizationSpec(np.full(7, 1.0), np.full(7, 0.05), 1.02, 0.01))


def record(name: str, ctrl: str) -> dict:
    cfg = builtin_scenario(name, duration=DURATION)
    cfg = replace(cfg, attacks=tuple(replace(a, tau=TAU) for a in cfg.attacks))
    if ctrl == "ann":
        cfg = replace(cfg, controllers=("ann", "pi", "pi", "pi"))
    tr = run_scenario(cfg, ann_params=PARAMS if ctrl == "ann" else None)
    _, recv = dg1_voltage_triple(tr)
    return {"t": tr.t[::EVERY].tolist(),
            "v": tr.dg["v"][::EVERY].tolist(),
            "Vn": tr.dg["Vn"][::EVERY].tolist(),
            "recv_triple": recv[::EVERY].tolist()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name, ctrl", CASES)
def test_matches_golden_trace(golden, name, ctrl):
    want = golden[f"{name}/{ctrl}"]
    got = record(name, ctrl)
    assert len(got["t"]) == len(want["t"]) == int(DURATION * 1000) // EVERY + 1
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12,
                                   err_msg=f"{name}/{ctrl} {key}")


if __name__ == "__main__" and "--record" in sys.argv:
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {f"{name}/{ctrl}": record(name, ctrl) for name, ctrl in CASES}
    FIXTURE.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {len(data)} traces to {FIXTURE}")
