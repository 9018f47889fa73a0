"""Offline training of the neural resilient voltage controller.

A 7-10-1 network (tansig hidden layer, linear output) learns what DG1's
voltage set-point *should* be from the three voltage values its controller
receives plus the reference.  Training pairs come from a scenario matrix of
load steps crossed with attack cases; targets are the matching clean runs.

This demo uses a reduced matrix (one load level, 0.8 s runs) so it finishes
in under a minute.  The full-scale pipeline is:

    mgres gen-data --out-dir data/
    mgres train --data data/ --out model.txt
"""

import os
import tempfile

from mgres import MatrixSpec, TrainConfig, build_dataset, gen_data, save_model, train
from mgres.datagen import load_runs

with tempfile.TemporaryDirectory(prefix="mgres-demo-") as work:
    data_dir = os.path.join(work, "data")

    tiny = MatrixSpec(load_factors=(1.0,), alphas=(0.5,), betas=(0.5,),
                      tau=0.4, step_time=0.2, duration=0.8)
    entries = gen_data(data_dir, tiny)
    print(f"generated {len(entries)} runs in {data_dir}")

    ds = build_dataset(load_runs(data_dir))
    print(f"dataset: {len(ds)} rows, {int(ds.attacked.sum())} from attacked runs")
    print("feature layout: [v11, v12, v14, vh11, vh12, vh14, v*]")

    params, report = train(ds, TrainConfig(max_epochs=300))
    print(f"trained {len(report.train_mse)} epochs "
          f"({sum(report.accepted)} accepted steps)")
    print(f"train MSE {report.train_mse[-1]:.3e}, "
          f"best validation MSE {report.best_val_mse:.3e} "
          f"at epoch {report.best_epoch}")

    model_path = os.path.join(work, "model.txt")
    save_model(params, model_path)
    print(f"model saved to {model_path} (removed with {work} on exit)")
