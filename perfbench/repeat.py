"""Repeat benchmark runs over several seeds and report each end-to-end
metric's median and quartile spread against its bound.

Usage (from the repository root):

    python3 perfbench/repeat.py --runs 10                  # every workload, seeds 1..10
    python3 perfbench/repeat.py --workload wideband --runs 5
    python3 perfbench/repeat.py --runs 10 --baseline perfbench/baseline.json

The spread of a metric is (Q3 - Q1) / median of its per-run values, with
the quartiles from ``statistics.quantiles(values, n=4)``. A spread above a
third of the metric's bound in BENCHMARK.json is flagged. --baseline also
makes one traced run per workload at the default seed and writes the
medians, quartiles and per-layer values as the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), None)
    return result, wall, meta


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names, action="append")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--baseline", help="write the recorded baseline to this file")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        walls, seeds, meta = [], [], None
        for seed in range(1, args.runs + 1):
            result, wall, meta = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            walls.append(wall)
            seeds.append(seed)
            print(f"{workload} seed {seed}: wall {wall:.1f} s  "
                  + "  ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        entry = {"seeds": seeds, "run_wall_s": walls, "end_to_end": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 else "  ABOVE A THIRD OF THE BOUND"
            steady &= name == "setup_s" or spread <= bounds[name] / 3
            print(f"  {workload:<18} {name:<12} median {med:10.4f}  spread {spread:6.3f}  bound {bounds[name]}{flag}")
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        if args.baseline:
            result, _, _ = run_once(workload, 0, args.seconds, 1)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed 0 traced: incorrect result {result}")
            entry["per_layer_seed0"] = {k: v["value"] for k, v in result["metrics"].items()}
        report["workloads"][workload] = entry
        report["meta"] = meta
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
