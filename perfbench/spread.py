#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how much each metric spreads.

Run from the root of a checkout of the repository:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-5 --workloads train --trace --out s.json

For each workload it runs perfbench/run.py once per seed, one run at a time,
for BENCHMARK.json's run_seconds.  For each end-to-end metric it prints the
median of the runs, their quartiles as statistics.quantiles(values, n=4)
gives them, and the interquartile range as a share of the median, beside the
metric's bound.  --trace adds one traced run per workload on the first seed.
--out writes every result line and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 180.0


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=3 * RUN_LIMIT_S)
    wall = time.monotonic() - t0
    lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = {"seed": seed, "wall_s": wall, "result": lines[-1]}
    for line in lines[:-1]:
        record.update(line)
    return record


def summarize(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third": bound is None or spread < bound / 3}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            rec = run_once(workload, seed, args.seconds, trace=False)
            res = rec["result"]
            print(f"{workload} seed {seed}: {rec['wall_s']:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
            if rec["wall_s"] > RUN_LIMIT_S:
                print(f"  run exceeded {RUN_LIMIT_S:.0f}s", flush=True)
            runs.append(rec)
        summary = {}
        for name, bound in bounds.items():
            s = summarize([r["result"]["metrics"][name]["value"] for r in runs], bound)
            summary[name] = s
            print(f"  {name}: median {s['median']:.6g} IQR [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"spread {s['spread']:.3f} (bound {bound}, bound/3 {bound / 3:.3f})"
                  + ("" if s["within_third"] else "  <-- above bound/3"), flush=True)
        entry = {"runs": runs, "summary": summary}
        if args.trace:
            entry["traced"] = run_once(workload, seeds[0], args.seconds, trace=True)
            print(f"  traced run: {entry['traced']['wall_s']:.1f}s, layer check "
                  + ", ".join(f"{k}={v['status']}"
                              for k, v in entry["traced"]["layer_check"].items()),
                  flush=True)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
