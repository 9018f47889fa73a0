"""Golden regression: the engine and the trainer must reproduce recorded references.

Traces: each built-in scenario runs for 1 s with the attack onset moved to
0.5 s, once with the baseline controller on every DG and once with a fixed
MLP on DG1.  Every 20 ms the fixture holds dg.v, dg.Vn and DG1's received
voltage triple, matched to 1e-12.

Fits: two seeded training runs, one on the synthetic dataset of test_ann and
one on a small gen-data matrix.  The fixture holds the per-epoch report and
the saved model text, matched exactly.

Regenerate both fixtures (only when a change to the results is intended) with

    PYTHONPATH=src python tests/test_golden.py --record

Check that a change keeps every trace byte-identical: the SHA-256 of the
CSVs of the six 4 s built-in runs (each built-in scenario with the baseline
controller, then with the benchmark's ANN fixture
``perfbench/fixtures/model.txt`` on DG1) and of each CSV that gen_data
writes for ``GEN_MATRIX`` and for ``GEN_MATRIX_EARLY`` are printed and
compared with
``fixtures/golden_digests.json``; the exit status is 1, naming each run,
when any differs.  ``--record`` rewrites that fixture too.

    PYTHONPATH=src python tests/test_golden.py --digests
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mgres.ann import (MlpParams, NormalizationSpec, TrainConfig, build_dataset,
                       feature_channels, load_model, save_model, train)
from mgres.datagen import MatrixSpec, gen_data, load_runs
from mgres.scenario import BUILTIN_SCENARIOS, builtin_scenario
from mgres.simulate import run_scenario
from mgres.trace import export_csv
from test_ann import synth_dataset

FIXTURE = Path(__file__).parent / "fixtures" / "golden_traces.json"
FIT_FIXTURE = Path(__file__).parent / "fixtures" / "golden_train.json"
DIGEST_FIXTURE = Path(__file__).parent / "fixtures" / "golden_digests.json"
DIGEST_MODEL = Path(__file__).parent.parent / "perfbench" / "fixtures" / "model.txt"
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
        cfg = replace(cfg, controllers=("ann", "pi", "pi", "pi"), ann_model=PARAMS)
    tr = run_scenario(cfg)
    recv = tr.ch_recv[:, feature_channels(tr.channels, 0)]
    return {"t": tr.t[::EVERY].tolist(),
            "v": tr.dg["v"][::EVERY].tolist(),
            "Vn": tr.dg["Vn"][::EVERY].tolist(),
            "recv_triple": recv[::EVERY].tolist()}


GEN_MATRIX = MatrixSpec(load_factors=(0.85, 1.15), duration=0.35, step_time=0.1, tau=0.2)
# the attack onset before the load step: the cells of one attack case share
# their run up to the load step across load factors
GEN_MATRIX_EARLY = replace(GEN_MATRIX, tau=0.05)
FITS = {"synth": TrainConfig(max_epochs=300, seed=1),
        "gen-data": TrainConfig(max_epochs=200, tolerance=0.0)}


def fit_dataset(name: str, work: Path):
    if name == "synth":
        return synth_dataset()
    gen_data(str(work), GEN_MATRIX)
    return build_dataset(load_runs(str(work)))


def record_fit(name: str, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    params, report = train(fit_dataset(name, work), FITS[name])
    model = work / "model.txt"
    save_model(params, model)
    return {"train_mse": report.train_mse, "val_mse": report.val_mse,
            "accepted": report.accepted, "best_epoch": report.best_epoch,
            "best_val_mse": report.best_val_mse, "model": model.read_text()}


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


@pytest.mark.parametrize("name", FITS)
def test_matches_golden_fit(tmp_path, name):
    want = json.loads(FIT_FIXTURE.read_text())[name]
    got = record_fit(name, tmp_path)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], f"{name} {key}"


def csv_digests(model_path: Path) -> list[tuple[str, str]]:
    """(run name, SHA-256 of its CSV) for the six 4 s built-in runs, then for
    the cells of ``GEN_MATRIX`` (``gen-data/<id>``) and of ``GEN_MATRIX_EARLY``
    (``gen-data-early/<id>``) as gen_data writes them."""
    params = load_model(model_path)
    out = []
    for ctrl in ("pi", "ann"):
        for name in BUILTIN_SCENARIOS:
            cfg = builtin_scenario(name, duration=4.0)
            if ctrl == "ann":
                cfg = replace(cfg, controllers=("ann", "pi", "pi", "pi"), ann_model=params)
            tr = run_scenario(cfg)
            out.append((f"{name}/{ctrl}",
                        hashlib.sha256(export_csv(tr).encode()).hexdigest()))
    for prefix, spec in (("gen-data", GEN_MATRIX), ("gen-data-early", GEN_MATRIX_EARLY)):
        with tempfile.TemporaryDirectory() as work:
            for e in gen_data(work, spec):
                out.append((f"{prefix}/{e['id']}",
                            hashlib.sha256(Path(work, e["file"]).read_bytes()).hexdigest()))
    return out


if __name__ == "__main__" and "--digests" in sys.argv:
    want = json.loads(DIGEST_FIXTURE.read_text())
    got = dict(csv_digests(DIGEST_MODEL))
    for run, digest in got.items():
        print(f"{run:42s} {digest}" + ("" if want.get(run) == digest else "  differs"))
    differ = [run for run in {**want, **got} if want.get(run) != got.get(run)]
    if differ:
        sys.exit(f"digests differ from {DIGEST_FIXTURE.name}: {', '.join(differ)}")

if __name__ == "__main__" and "--record" in sys.argv:
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {f"{name}/{ctrl}": record(name, ctrl) for name, ctrl in CASES}
    FIXTURE.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {len(data)} traces to {FIXTURE}")
    with tempfile.TemporaryDirectory() as work:
        fits = {name: record_fit(name, Path(work) / name) for name in FITS}
    FIT_FIXTURE.write_text(json.dumps(fits, indent=1) + "\n")
    print(f"wrote {len(fits)} fits to {FIT_FIXTURE}")
    digests = dict(csv_digests(DIGEST_MODEL))
    DIGEST_FIXTURE.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGEST_FIXTURE}")
