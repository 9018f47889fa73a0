"""Command-line interface.

Exit codes: 0 success, 1 configuration/validation error, 2 divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import ann as annmod
from .datagen import MatrixSpec, gen_data, load_runs
from .graph import SIGNALS
from .metrics import check_span, compare, compute_metrics
from .scenario import ConfigReader, load_scenario, read_yaml
from .simulate import run_scenario
from .trace import export_csv, write_text

# typed config errors subclass ValueError, a failed fit raises TrainingError, a bad path OSError
CONFIG_ERRORS = (ValueError, annmod.TrainingError, OSError)


def check_steady_window(cfg) -> None:
    """Reject, before it runs, a scenario whose trace cannot span the steady
    window of its metrics: from t = 0 to its last sample step."""
    check_span((cfg.last_step - cfg.last_step % cfg.sample_stride) * cfg.dt)


def check_output(path: str) -> None:
    """Reject, before any run or fit, an output path that cannot be written:
    a directory, or one whose parent directory does not exist."""
    if os.path.isdir(path):
        raise OSError(f"cannot write {path}: Is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise OSError(f"cannot write {path}: No such directory")


def cmd_simulate(args) -> int:
    # evaluate is simulate with the ANN of --model on DG1, and reports its steady error
    check_output(args.out)
    cfg = load_scenario(args.scenario, ann_model=args.model)
    if args.model is not None:
        check_steady_window(cfg)
    trace = run_scenario(cfg)
    export_csv(trace, args.out)
    if trace.diverged:
        print(f"diverged at t={trace.diverged_time:.6f}s ({trace.diverged_cause}); "
              f"partial trace in {args.out}")
        return 2
    steady = "" if args.model is None else (
        f"; steady voltage error {compute_metrics(trace).steady_voltage_error_pct.max():.3f}%")
    print(f"wrote {len(trace.t)} samples to {args.out}{steady}")
    return 0


def cmd_gen_data(args) -> int:
    matrix = MatrixSpec()
    if args.matrix:
        matrix = ConfigReader(read_yaml(args.matrix, "matrix") or {}, "matrix").build(MatrixSpec)
    entries = gen_data(args.out_dir, matrix)
    n_ok = sum(e["status"] == "ok" for e in entries)
    failed = any(e["status"].startswith("error:") for e in entries)
    print(f"{n_ok}/{len(entries)} runs ok; manifest in {args.out_dir}/manifest.json")
    return 1 if failed else 0 if n_ok == len(entries) else 2


def cmd_train(args) -> int:
    check_output(args.out)
    d = (read_yaml(args.config, "training config") or {}) if args.config else {}
    # a seed in the config file wins over --seed
    tc = ConfigReader(d, "training config").build(annmod.TrainConfig, seed=args.seed or 0)
    params, report = annmod.train(annmod.build_dataset(load_runs(args.data)), tc)
    annmod.save_model(params, args.out)
    print(f"trained {len(report.train_mse)} epochs; "
          f"best validation MSE {report.best_val_mse:.3e} "
          f"(epoch {report.best_epoch}); model saved to {args.out}")
    return 0


def cmd_compare(args) -> int:
    check_output(args.report)
    # the baseline is PI on every DG, whatever controllers the scenario names
    cfg_ann = load_scenario(args.scenario, ann_model=args.model)
    check_steady_window(cfg_ann)
    cfg_pi = replace(cfg_ann, controllers=None, ann_model=None)
    t_pi = run_scenario(cfg_pi)
    t_ann = run_scenario(cfg_ann)
    report = compare(t_pi, t_ann, v_ref=cfg_pi.v_ref, w_ref=cfg_pi.w_ref).as_dict()
    write_text(args.report, json.dumps(report, indent=2))
    print(f"report written to {args.report}")
    for name, val in report["verdicts"].items():
        print(f"  {name}: {val}")
    if t_pi.diverged or t_ann.diverged:
        return 2
    return 0


def cmd_graph_info(args) -> int:
    g = load_scenario(args.scenario).graph
    print(f"{g.n} DGs; pinned: "
          + ", ".join(f"dg{i + 1} (b={g.pinning[i]:g})"
                      for i in range(g.n) if g.pinning[i] > 0))
    for i in range(g.n):
        nbrs = g.in_neighbors(i)
        desc = ", ".join(f"dg{j + 1} (a={g.adjacency[i, j]:g})" for j in nbrs)
        print(f"dg{i + 1} receives from: {desc or '-'}")
    print(f"channels: {len(g.channels()) // len(SIGNALS)} per signal kind")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mgres", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def scen_arg(sp):
        sp.add_argument("--scenario", required=True,
                        help="built-in scenario name or YAML file")

    sp = sub.add_parser("simulate", help="run a scenario, write the trace CSV")
    scen_arg(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_simulate, model=None)

    sp = sub.add_parser("gen-data", help="run the training scenario matrix")
    sp.add_argument("--matrix", default=None, help="YAML matrix description")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("train", help="train the resilient controller offline")
    sp.add_argument("--data", required=True, help="gen-data output directory")
    sp.add_argument("--config", default=None, help="YAML training config")
    sp.add_argument("--out", required=True, help="model output path")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", help="run a scenario with the ANN controller")
    scen_arg(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("compare", help="run PI and ANN on one scenario, report verdicts")
    scen_arg(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--report", required=True)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("graph-info", help="describe the communication graph")
    scen_arg(sp)
    sp.set_defaults(func=cmd_graph_info)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
