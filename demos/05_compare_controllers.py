"""Baseline vs. neural controller under attack, side by side.

Trains a quick model on the reduced matrix, then replays the two headline
attack scenarios with the consensus baseline everywhere ("pi") and with the
neural controller on DG1's voltage set-point ("ann").  For the full-scale
version (4 s scenarios, complete training matrix) use the CLI:

    mgres gen-data --out-dir data/
    mgres train --data data/ --out model.txt
    mgres compare --scenario default-nonperiodic --model model.txt --report report.json
"""

import json
import os
import tempfile

from mgres import MatrixSpec, TrainConfig, build_dataset, builtin_scenario, compare, \
    gen_data, run_scenario, save_model, train
from mgres.datagen import load_runs

with tempfile.TemporaryDirectory(prefix="mgres-demo-") as work:
    data_dir = os.path.join(work, "data")
    model_path = os.path.join(work, "model.txt")

    # quick-turnaround training (see demo 04 for the narrated version)
    gen_data(data_dir, MatrixSpec(load_factors=(0.85, 1.0, 1.15),
                                  tau=0.6, step_time=0.3, duration=1.2))
    params, report = train(build_dataset(load_runs(data_dir)), TrainConfig(max_epochs=400))
    save_model(params, model_path)
    print(f"model ready (validation MSE {report.best_val_mse:.2e})\n")

    for name in ("default-nonperiodic", "default-periodic"):
        t_pi = run_scenario(builtin_scenario(name, duration=3.0))
        t_ann = run_scenario(builtin_scenario(name, ann_model=model_path,
                                              duration=3.0))
        rep = compare(t_pi, t_ann)
        print(f"--- {name} ---")
        print(f"  post-attack mean |v1 - v*|: baseline "
              f"{rep.baseline.eps_v_post_mean:.4f} pu, "
              f"ann {rep.ann.eps_v_post_mean:.4f} pu")
        print(f"  post-attack ripple: baseline {rep.baseline.voltage_ripple:.4f}, "
              f"ann {rep.ann.voltage_ripple:.4f}")
        print("  verdicts: " + json.dumps(rep.as_dict()["verdicts"]))
        print()
