#!/usr/bin/env python3
"""Benchmark for mgres: three seeded workloads, output checks, per-layer spans.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

Workloads (perfbench/README.md says why each was chosen):

    matrix       one datagen.gen_data call on a seeded 10-cell MatrixSpec
    closed-loop  the work of `mgres compare` on seeded 4 s attack scenarios
    train        datagen.load_runs, ann.build_dataset and ann.train on
                 seeded trace CSVs that set-up writes with gen_data

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns, until --seconds have passed.  Every operation
is checked; a failed check counts the operation as failed.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end ones, in reference seconds:
the timed seconds divided by the machine factor that a reference kernel
(calib.py), sampled while they were timed, measures.  With --trace 1
the run alternates untraced and traced operations and the metrics are the
per-layer figures of the traced ones.  The lines before it hold the machine
record, the workload's named stage figures and, when traced, the call-count
check.
"""

import os

# BLAS is pinned to one thread before NumPy is first imported, so that the
# figures measure the program and not the scheduler.
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402
from calib import Block, Calibration  # noqa: E402
from spans import Spans, patched  # noqa: E402

LOADAVG_AT_START = os.getloadavg()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MODEL = BENCH / "fixtures" / "model.txt"
MODEL_SHA256 = "9cf3adc1f35dee2317d72d2571e9a6635fb49d09ebee82f5f549b39831e8b87d"
WORK = ROOT / ".perfbench_work"

RESIDUAL_LIMIT = 1e-9        # worst power-balance residual of any run
BASELINE_EPS_MIN = 0.01      # pu; the non-periodic attack must hurt the baseline
ANN_EPS_MAX = 0.02           # pu; the ANN's post-attack maximum under a periodic attack
MATRIX_DURATION = 0.4        # s per matrix cell; load step 0.1 s, onset 0.2 s
TRAIN_DURATION = 0.35        # s per training-CSV cell
# The timed fit runs the default 1000-epoch budget to the end, so train time
# is the cost of that budget, not the time to convergence.  The default
# tolerance (1e-12 on the raw-unit MSE gain) stops a fit after one epoch,
# after several hundred or not at all, by seed (README, findings); each run
# also makes one untimed fit at the defaults and reports where it stopped.
TRAIN_TOLERANCE = 0.0
COMPARE_DURATION = 4.0       # s, the paper-length horizon
COMPARE_STEP_TIME = 1.0      # s, load step of the closed-loop scenarios
COMPARE_TAU = 2.0            # s, attack onset of the closed-loop scenarios


def fail(message: str):
    """Stop without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_mgres() -> SimpleNamespace:
    """Import mgres from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "mgres" / "__init__.py").is_file():
        fail(f"no mgres package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import mgres
    if Path(mgres.__file__).resolve().parent != (src / "mgres").resolve():
        fail(f"imported mgres from {mgres.__file__}, not from {src}")
    names = ("ann", "attack", "datagen", "metrics", "plant", "scenario",
             "simulate", "trace")
    return SimpleNamespace(**{n: importlib.import_module("mgres." + n) for n in names})


def check_model_fixture() -> None:
    if not MODEL.is_file():
        fail(f"missing ANN fixture {MODEL.relative_to(ROOT)}")
    digest = hashlib.sha256(MODEL.read_bytes()).hexdigest()
    if digest != MODEL_SHA256:
        fail(f"ANN fixture {MODEL.relative_to(ROOT)} has SHA-256 {digest}, "
             f"expected {MODEL_SHA256}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_PIN,
        "git_commit": git_commit(),
        "loadavg_at_start": list(LOADAVG_AT_START),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def draw(rng, lo: float, hi: float, n: int) -> tuple[float, ...]:
    """``n`` distinct values from U[lo, hi], rounded to 3 decimals, ascending.

    Distinct values keep the matrix's per-cell file names distinct.
    """
    vals: set[float] = set()
    while len(vals) < n:
        vals.add(round(float(rng.uniform(lo, hi)), 3))
    return tuple(sorted(vals))


def seed_rng(seed: int):
    return np.random.default_rng(seed % 2**63)


def matrix_args(rng, duration: float) -> dict:
    """MatrixSpec arguments for 2 load factors x {normal, 2 alphas, 2 betas}
    = 10 cells on the training ranges, with the load step and attack onset
    inside ``duration``."""
    return dict(
        load_factors=draw(rng, 0.7, 1.3, 2), alphas=draw(rng, 0.25, 0.5, 2),
        betas=draw(rng, 0.25, 0.5, 2), freq_hz=draw(rng, 58.0, 62.0, 1)[0],
        step_time=0.1, tau=0.2, duration=duration)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Checks:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


class Workload:
    """What the run loop needs from a workload.

    ``prepare`` makes the seeded inputs once and is not timed.  ``setup``
    holds only the mgres calls that build the workload's state, and is
    timed: the loop runs ``setup_batch`` of them back to back at
    ``setup_batches`` points spread evenly over the run.
    """

    setup_batches = 8
    setup_batch = 1

    def check_setup(self, checks: Checks) -> None:
        pass


class Matrix(Workload):
    """One gen_data call on a seeded 10-cell matrix; an operation is a cell."""

    name = "matrix"
    setup_batch = 250

    def __init__(self, mg, work: Path):
        self.mg, self.out = mg, work / "matrix"
        self.digests: dict[str, str] = {}
        self.runs: dict[str, object] = {}
        # Wraps the name gen_data looks up, to see each run's residual and
        # attack flag, which the CSV does not carry.  Installed once, beneath
        # any span wrapper.
        inner = mg.datagen.run_scenario

        def recorded(config, *args, **kwargs):
            trace = inner(config, *args, **kwargs)
            self.runs[config.scenario_id] = trace
            return trace

        mg.datagen.run_scenario = recorded

    def prepare(self, seed: int) -> None:
        self.args = matrix_args(seed_rng(seed), MATRIX_DURATION)
        self.out.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        self.spec = self.mg.datagen.MatrixSpec(**self.args)
        self.cells = [cfg for cfg, _ in self.mg.datagen.training_matrix(self.spec)]

    def call(self, i: int):
        self.runs = {}
        return self.mg.datagen.gen_data(str(self.out), self.spec)

    def check(self, entries, checks: Checks) -> dict:
        by_id = {e["id"]: e for e in entries}
        ok_cells, csv_bytes = 0, 0
        for cfg in self.cells:
            cid, attacked = cfg.scenario_id, bool(cfg.attacks)
            e, trace = by_id.get(cid), self.runs.get(cid)
            why = None
            if e is None or trace is None:
                why = "no manifest entry or run"
            elif e["status"] != "ok":
                why = f"status {e['status']!r}"
            elif e["attacked"] != attacked or bool(trace.attack_active.any()) != attacked:
                why = "attack flag does not match the cell"
            elif not trace.max_power_residual < RESIDUAL_LIMIT:
                why = f"power residual {trace.max_power_residual:.3g}"
            else:
                path = self.out / e["file"]
                csv_bytes += path.stat().st_size
                digest = file_digest(path)
                if self.digests.setdefault(cid, digest) != digest:
                    why = "CSV differs from the first run of the same cell"
            checks.record(why is None, f"matrix cell {cid}: {why}")
            ok_cells += why is None
        return {"cells": len(self.cells), "cells_ok": ok_cells, "csv_bytes": csv_bytes,
                "steps": sum(cfg.n_steps for cfg in self.cells)}

    def ops_per_call(self) -> int:
        return len(self.cells)

    def expected_calls(self) -> dict[str, int]:
        n = len(self.cells)
        return {"datagen.gen_data": 1, "simulate.run_scenario": n,
                "trace.export_csv": n}

    def stages(self, ops: list[dict]) -> dict:
        return {"gendata_s": median_metric([o["s"] for o in ops]),
                "sim_steps_per_s": rate_metric(ops)}


class ClosedLoop(Workload):
    """`mgres compare` on seeded attack scenarios; an operation is a run."""

    name = "closed-loop"
    setup_batch = 250      # about 1 s: only 3-4 batches fit between 10 s operations

    def __init__(self, mg, work: Path):
        self.mg, self.dir = mg, work / "closed-loop"
        self.seen: dict[str, tuple[float, float]] = {}

    def prepare(self, seed: int) -> None:
        rng = seed_rng(seed)
        base = self.mg.datagen.BASE_LOAD
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for kind in ("nonperiodic", "periodic"):
            f = draw(rng, 0.7, 1.3, 1)[0]
            attack = {"target": "broadcast -> dg1.voltage", "kind": kind,
                      "tau": COMPARE_TAU}
            if kind == "nonperiodic":
                attack["alpha"] = draw(rng, 0.25, 0.5, 1)[0]
            else:
                attack["beta"] = draw(rng, 0.25, 0.5, 1)[0]
                attack["freq_hz"] = draw(rng, 58.0, 62.0, 1)[0]
            load = {"t": COMPARE_STEP_TIME, "r": base.real / f, "x": base.imag / f}
            doc = {"id": f"{kind}-load{f:g}", "duration": COMPARE_DURATION,
                   "load_events": [dict(load, bus=1), dict(load, bus=3)],
                   "attacks": [attack]}
            path = self.dir / f"{kind}.yaml"
            path.write_text(yaml.safe_dump(doc, sort_keys=False))
            self.paths.append(str(path))
        check_model_fixture()

    def setup(self) -> None:
        self.configs = [self.mg.scenario.load_scenario(path) for path in self.paths]
        self.model = self.mg.ann.load_model(str(MODEL))

    def call(self, i: int):
        sc, sim = self.mg.scenario, self.mg.simulate
        path = self.paths[i % len(self.paths)]
        cfg_pi = sc.load_scenario(path)
        cfg_ann = sc.load_scenario(path, ann_model=str(MODEL))
        t_pi = sim.run_scenario(cfg_pi)
        t_ann = sim.run_scenario(cfg_ann)
        report = self.mg.metrics.compare(t_pi, t_ann, v_ref=cfg_pi.v_ref,
                                         w_ref=cfg_pi.w_ref)
        return path, cfg_pi, t_pi, t_ann, report

    def check(self, out, checks: Checks) -> dict:
        path, cfg, t_pi, t_ann, report = out
        eps_pi = report.baseline.eps_v_post_mean
        eps_ann = report.ann.eps_v_post_mean
        name = Path(path).stem
        # The periodic attack never moves the baseline's post-attack mean
        # eps_v past BASELINE_EPS_MIN (README, findings), so that shape is
        # judged like the repository's acceptance verdict: by ripple and by
        # the ANN's post-attack maximum.
        periodic = isinstance(cfg.attacks[0].kind, self.mg.attack.Periodic)
        for side, trace, eps in (("baseline", t_pi, eps_pi), ("ann", t_ann, eps_ann)):
            why = None
            if trace.diverged:
                why = f"diverged at t={trace.diverged_time}"
            elif not trace.max_power_residual < RESIDUAL_LIMIT:
                why = f"power residual {trace.max_power_residual:.3g}"
            elif eps is None:
                why = "no post-attack window"
            elif periodic and side == "ann" and not report.ann_smaller_ripple:
                why = "ANN ripple not below the baseline's"
            elif periodic and side == "ann" and not report.ann.eps_v_post_max < ANN_EPS_MAX:
                why = f"ANN post-attack max eps_v {report.ann.eps_v_post_max:.4g}"
            elif not periodic and side == "baseline" and not eps > BASELINE_EPS_MIN:
                why = f"baseline post-attack mean eps_v {eps:.4g} <= {BASELINE_EPS_MIN}"
            elif not periodic and side == "ann" and not (eps_pi is not None and eps < eps_pi):
                why = f"ANN post-attack mean eps_v {eps:.4g} not below baseline {eps_pi}"
            elif self.seen.setdefault(path, (eps_pi, eps_ann)) != (eps_pi, eps_ann):
                why = "metrics differ from the first run of the same scenario"
            checks.record(why is None, f"closed-loop {name} {side}: {why}")
        return {"steps": 2 * cfg.n_steps, "eps_ann": eps_ann, "eps_pi": eps_pi}

    def ops_per_call(self) -> int:
        return 2

    def expected_calls(self) -> dict[str, int]:
        return {"scenario.load_scenario": 2, "simulate.run_scenario": 2,
                "metrics.compare": 1}

    def stages(self, ops: list[dict]) -> dict:
        worst = [o["eps_ann"] for o in ops if o.get("eps_ann") is not None]
        return {"compare_s": median_metric([o["s"] for o in ops]),
                "sim_steps_per_s": rate_metric(ops),
                "ann_eps_v_post_mean": metric(max(worst) if worst else None, "pu")}


class Train(Workload):
    """load_runs, build_dataset and train on seeded CSVs; an operation is a fit."""

    name = "train"
    setup_batches = 3      # each set-up simulates the whole matrix

    def __init__(self, mg, work: Path):
        self.mg, self.dir = mg, work / "train"
        self.first_val = None
        self.digests: dict[str, str] = {}

    def prepare(self, seed: int) -> None:
        self.spec = self.mg.datagen.MatrixSpec(**matrix_args(seed_rng(seed), TRAIN_DURATION))
        cells = self.mg.datagen.training_matrix(self.spec)
        self.csv_files = len(cells)
        self.rows = 0
        for cfg, _ in cells:
            t = np.arange(0, cfg.n_steps + 1, cfg.sample_stride) * cfg.dt
            self.rows += int((t >= 0.1 - 1e-12).sum()) * (2 if cfg.attacks else 1)

    def setup(self) -> None:
        self.entries = self.mg.datagen.gen_data(str(self.dir), self.spec)

    def check_setup(self, checks: Checks) -> None:
        """Every cell is ok, and a repeated set-up writes the same CSVs."""
        self.csv_bytes = 0
        for e in self.entries:
            why = None
            if e["status"] != "ok":
                why = f"status {e['status']!r}"
            else:
                path = self.dir / e["file"]
                self.csv_bytes += path.stat().st_size
                digest = file_digest(path)
                if self.digests.setdefault(e["id"], digest) != digest:
                    why = "CSV differs from the first set-up's"
            checks.record(why is None, f"train set-up cell {e['id']}: {why}")

    def call(self, i: int):
        ann = self.mg.ann
        t0 = time.perf_counter()
        dataset = ann.build_dataset(self.mg.datagen.load_runs(str(self.dir)))
        t1 = time.perf_counter()
        params, report = ann.train(dataset, ann.TrainConfig(tolerance=TRAIN_TOLERANCE))
        t2 = time.perf_counter()
        return dataset, params, report, t1 - t0, t2 - t1

    def check(self, out, checks: Checks) -> dict:
        dataset, params, report, dataset_s, train_s = out
        ann = self.mg.ann
        accepted = [m for m, a in zip(report.train_mse, report.accepted) if a]
        path = self.dir / "model.txt"
        ann.save_model(params, str(path))
        back = ann.load_model(str(path))
        why = None
        if len(dataset) != self.rows:
            why = f"dataset has {len(dataset)} rows, expected {self.rows}"
        elif not (np.isfinite(report.train_mse).all() and np.isfinite(report.val_mse).all()
                  and np.isfinite(report.best_val_mse)):
            why = "non-finite loss"
        elif any(b > a for a, b in zip(accepted, accepted[1:])):
            why = "accepted-step train MSE increased"
        elif not all(np.array_equal(getattr(params, k), getattr(back, k))
                     for k in ("w1", "b1", "w2", "b2")) \
                or not all(np.array_equal(getattr(params.norm, k), getattr(back.norm, k))
                           for k in ("x_offset", "x_scale", "y_offset", "y_scale")):
            why = "model changed in a save_model/load_model round trip"
        elif self.first_val is not None and report.best_val_mse != self.first_val:
            why = "best validation MSE differs from the first fit on the same data"
        if self.first_val is None:
            self.first_val = report.best_val_mse
        self.dataset = dataset
        checks.record(why is None, f"train fit: {why}")
        return {"dataset_s": dataset_s, "train_s": train_s, "rows": len(dataset),
                "epochs": len(report.train_mse), "accepted": sum(report.accepted),
                "val_mse": report.best_val_mse, "parse_bytes": self.csv_bytes}

    def ops_per_call(self) -> int:
        return 1

    def expected_calls(self) -> dict[str, int]:
        return {"datagen.load_runs": 1, "trace.parse_csv": self.csv_files,
                "ann.build_dataset": 1, "ann.train": 1}

    def default_fit_epochs(self) -> int:
        """Epochs that one fit at the TrainConfig defaults runs before its
        stopping rule ends it; not timed."""
        if getattr(self, "default_epochs", None) is None:
            _, report = self.mg.ann.train(self.dataset, self.mg.ann.TrainConfig())
            self.default_epochs = len(report.train_mse)
        return self.default_epochs

    def stages(self, ops: list[dict]) -> dict:
        return {"dataset_s": median_metric([o["dataset_s"] for o in ops]),
                "train_s": median_metric([o["train_s"] for o in ops]),
                "val_mse": metric(ops[-1]["val_mse"], "pu2"),
                "default_fit_epochs": metric(self.default_fit_epochs(), "count")}


WORKLOADS = {w.name: w for w in (Matrix, ClosedLoop, Train)}


def median_metric(values: list[float]) -> dict:
    return dict(metric(statistics.median(values), "s"), n=len(values), samples=values)


def rate_metric(ops: list[dict]) -> dict:
    return metric(sum(o["steps"] for o in ops) / sum(o["s"] for o in ops), "steps/s")


# -- traced run ---------------------------------------------------------------

# Per-step layers and their call count predicted for one scenario run from
# (n_steps, attacks, ANN-controlled DGs).
PER_STEP = {
    "plant.step_plant": lambda n, atk, ann: n + 1,
    "plant.solve_network": lambda n, atk, ann: n + 1,
    "attack.gain": lambda n, atk, ann: (n + 1) * atk,
    "secondary.secondary_update": lambda n, atk, ann: n,
    "ann.ann_controller": lambda n, atk, ann: n * ann,
}


def run_info(config, *args, **kwargs):
    return config.n_steps, len(config.attacks), config.controllers.count("ann")


def span_targets(mg, spans):
    """Wrap each public call at the name its caller looks it up by."""
    wanted = [
        (mg.simulate, "step_plant", "plant.step_plant", None),
        (mg.simulate, "secondary_update", "secondary.secondary_update", None),
        (mg.plant, "solve_network", "plant.solve_network", None),
        (mg.attack.AttackSpec, "gain", "attack.gain", None),
        (mg.ann, "ann_controller", "ann.ann_controller", None),
        (mg.simulate, "run_scenario", "simulate.run_scenario", run_info),
        (mg.datagen, "run_scenario", "simulate.run_scenario", run_info),
        (mg.datagen, "export_csv", "trace.export_csv", None),
        (mg.datagen, "parse_csv", "trace.parse_csv", None),
        (mg.datagen, "gen_data", "datagen.gen_data", None),
        (mg.datagen, "load_runs", "datagen.load_runs", None),
        (mg.ann, "build_dataset", "ann.build_dataset", None),
        (mg.ann, "train", "ann.train", None),
        (mg.scenario, "load_scenario", "scenario.load_scenario", None),
        (mg.metrics, "compare", "metrics.compare", None),
    ]
    return [(owner, attr, spans.wrap(name, getattr(owner, attr), info))
            for owner, attr, name, info in wanted]


class LayerTotals:
    """Span totals summed over the traced operations."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = 0
        self.by_name: dict[str, dict[str, float]] = {}
        self.predicted: dict[str, int] = {}
        self.run_mismatch: set[str] = set()
        self.steps = 0

    def add(self, spans) -> None:
        per_name, per_run = spans.totals()
        self.ops += 1
        for name, t in per_name.items():
            acc = self.by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += t[k]
        for name, count in self.workload.expected_calls().items():
            self.predicted[name] = self.predicted.get(name, 0) + count
        col = {n: i for i, n in enumerate(spans.names)}
        for r, (n, atk, ann) in enumerate(spans.runs):
            self.steps += n
            for name, predict in PER_STEP.items():
                want = predict(n, atk, ann)
                got = int(per_run[r, col[name]]) if name in col else 0
                self.predicted[name] = self.predicted.get(name, 0) + want
                if got != want:
                    self.run_mismatch.add(name)

    def calls(self, name: str) -> int:
        return int(self.by_name.get(name, {}).get("calls", 0))

    def check(self) -> dict:
        out = {}
        for name, want in sorted(self.predicted.items()):
            got = self.calls(name)
            if want == 0 and got == 0:
                status = "not on this workload"
            elif got == 0:
                status = "missing"
            elif got != want or name in self.run_mismatch:
                status = "mismatch"
            else:
                status = "ok"
            out[name] = {"predicted_per_op": want / self.ops,
                         "measured_per_op": got / self.ops, "status": status}
        return out

    def per_call(self, name: str, key: str, scale: float):
        """Mean seconds per call times ``scale``; None for a missing layer,
        0 for a layer this workload does not call."""
        calls = self.calls(name)
        if calls:
            return self.by_name[name][key] / calls * scale
        return None if self.predicted.get(name, 0) else 0.0

    def seconds(self, name: str) -> float:
        return self.by_name.get(name, {}).get("total_s", 0.0)


def layer_metrics(lt: LayerTotals, facts: list[dict], overhead_s: float,
                  default_epochs: int) -> dict:
    ops = lt.ops

    def total(key):
        return sum(f.get(key, 0) for f in facts)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for name, unit in (("plant.step_plant", "self_us"), ("plant.solve_network", "us"),
                       ("attack.gain", "us"), ("secondary.secondary_update", "us"),
                       ("ann.ann_controller", "us")):
        m[f"{name}.calls"] = metric(lt.calls(name) / ops, "count")
        m[f"{name}.{unit}"] = metric(lt.per_call(name, "self_s", 1e6), "us")
    run_us = lt.per_call("simulate.run_scenario", "self_s", 1e6)
    m["simulate.run_scenario.calls"] = metric(lt.calls("simulate.run_scenario") / ops, "count")
    m["simulate.run_scenario.self_us_per_step"] = metric(
        run_us and run_us * lt.calls("simulate.run_scenario") / lt.steps, "us")
    epochs = total("epochs")
    m["ann.train.epochs"] = metric(ratio(epochs, lt.calls("ann.train")), "count")
    m["ann.train.ms_per_epoch"] = metric(ratio(lt.seconds("ann.train"), epochs, 1e3), "ms")
    m["ann.train.accepted_ratio"] = metric(ratio(total("accepted"), epochs), "1")
    m["ann.train.best_val_mse"] = metric(facts[-1]["val_mse"] if epochs else 0.0, "pu2")
    m["ann.train.default_epochs"] = metric(default_epochs, "count")
    m["ann.build_dataset.s"] = metric(lt.per_call("ann.build_dataset", "total_s", 1.0), "s")
    m["ann.build_dataset.rows"] = metric(ratio(total("rows"), lt.calls("ann.build_dataset")),
                                         "count")
    m["trace.export_csv.s"] = metric(lt.per_call("trace.export_csv", "total_s", 1.0), "s")
    m["trace.export_csv.bytes"] = metric(
        ratio(total("csv_bytes"), lt.calls("trace.export_csv")), "B")
    m["trace.export_csv.mb_per_s"] = metric(
        ratio(total("csv_bytes"), lt.seconds("trace.export_csv"), 1e-6), "MB/s")
    m["trace.parse_csv.s"] = metric(lt.per_call("trace.parse_csv", "total_s", 1.0), "s")
    m["trace.parse_csv.mb_per_s"] = metric(
        ratio(total("parse_bytes"), lt.seconds("trace.parse_csv"), 1e-6), "MB/s")
    m["datagen.gen_data.cells"] = metric(total("cells") / ops, "count")
    m["datagen.gen_data.cells_ok"] = metric(total("cells_ok") / ops, "count")
    m["datagen.load_runs.s"] = metric(lt.per_call("datagen.load_runs", "total_s", 1.0), "s")
    m["scenario.load_scenario.ms"] = metric(
        lt.per_call("scenario.load_scenario", "total_s", 1e3), "ms")
    m["metrics.compare.ms"] = metric(lt.per_call("metrics.compare", "total_s", 1e3), "ms")
    eps = [f["eps_ann"] for f in facts if f.get("eps_ann") is not None]
    m["metrics.compare.ann_eps_v_post_mean"] = metric(max(eps) if eps else 0.0, "pu")
    m["bench.trace_overhead_s"] = metric(overhead_s, "s")
    return m


# -- entry point ---------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    mg = import_mgres()
    check_model_fixture()
    print(json.dumps({"machine": machine_record()}), flush=True)
    work = WORK / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[workload_name](mg, work)
        wl.prepare(seed)
        checks = Checks()
        spans = Spans() if trace else None
        totals = LayerTotals(wl)
        cal = Calibration()
        setup_times, plain, traced = [], [], []
        setup_blocks, op_blocks = Block(), Block()
        t_start = time.perf_counter()
        i = 0
        while True:
            # Set-up batches are spread over the run, so that setup_s sees
            # the same stretch of the machine's drift as the operations.
            if len(setup_times) * seconds <= (time.perf_counter() - t_start) * wl.setup_batches:
                with cal.timed() as block:
                    for _ in range(wl.setup_batch):
                        wl.setup()
                setup_times.append(block.work_s / wl.setup_batch)
                setup_blocks.add(block)
                wl.check_setup(checks)
            tracing = trace and i % 2 == 1
            # Traced operations run without kernel slices, which would
            # land in whatever span is open.
            with patched(span_targets(mg, spans)) if tracing else cal.timed() as block:
                t0 = time.perf_counter()
                try:
                    out, err = wl.call(i), None
                except Exception as exc:  # the failure is counted, not raised
                    out, err = None, exc
                op_s = time.perf_counter() - t0
            if err is None:
                if not tracing:
                    op_s = block.work_s
                    op_blocks.add(block)
                facts = dict(wl.check(out, checks), s=op_s)
                (traced if tracing else plain).append(facts)
                if tracing:
                    totals.add(spans)
            else:
                for _ in range(wl.ops_per_call()):
                    checks.record(False, f"{wl.name} call raised {err!r}")
            if tracing:
                spans.clear()
            i += 1
            if time.perf_counter() - t_start >= seconds and (not trace or i >= 2):
                break
        checks.record(not cal.bad_checksums, "reference kernel gave a different checksum")
        stages = wl.stages(plain) if plain else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    if trace:
        layer_check = totals.check()
        mismatched = sorted(k for k, v in layer_check.items() if v["status"] == "mismatch")
        checks.record(not mismatched, f"traced call counts differ from the predicted "
                                      f"ones for {', '.join(mismatched)}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Means over set-ups and, below, over operations, in reference seconds.
    # The machine's speed drifts across whole runs and swings within seconds
    # (README, noise); the factor of the slices taken while the set-ups, or
    # the operations, were timed takes that out.
    setup_s = setup_blocks.ref_s / (len(setup_times) * wl.setup_batch)
    stages = {"machine_factor": dict(metric(op_blocks.factor if plain else None, "1"),
                                     slices=op_blocks.slices,
                                     setup=setup_blocks.factor,
                                     setup_slices=setup_blocks.slices),
              "setup_s": metric(setup_s, "s"),
              "setup_wall_s": dict(metric(statistics.fmean(setup_times), "s"),
                                   n=len(setup_times),
                                   batch=wl.setup_batch, samples=setup_times),
              **stages, "peak_rss_mb": metric(peak_rss_mb, "MB"),
              "op_wall_s": metric(statistics.fmean(o["s"] for o in plain) if plain else None,
                                  "s"),
              "failed_ops_ratio": dict(metric(checks.failed / checks.attempted, "1"),
                                       base=checks.attempted)}
    print(json.dumps({"workload": wl.name, "seed": seed, "stages": stages}), flush=True)
    for problem in checks.problems:
        print(json.dumps({"check_failed": problem}), flush=True)

    if trace:
        overhead = statistics.median(o["s"] for o in traced) \
            - statistics.median(o["s"] for o in plain) if traced and plain else 0.0
        print(json.dumps({"layer_check": layer_check}), flush=True)
        default_epochs = stages.get("default_fit_epochs", {}).get("value", 0)
        metrics = layer_metrics(totals, traced, overhead, default_epochs) if traced else {}
    else:
        op_s = op_blocks.ref_s / len(plain) if plain else None
        metrics = {"setup_s": metric(setup_s, "s"), "op_s": metric(op_s, "s"),
                   "peak_rss_mb": metric(peak_rss_mb, "MB")}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
