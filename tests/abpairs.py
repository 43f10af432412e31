"""Alternating benchmark runs of two checkouts, judged as a speed claim.

    python tests/abpairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed K]

--seed defaults to 0, the benchmark's default seed. Every run takes
perfbench's own run length, the benchmark's.

Runs `perfbench/run.py --workload W` of each checkout, from its own root,
N times each: pair i runs the parent first when i is even and the change
first when i is odd, so neither side always runs on a warmer machine. For
every end-to-end metric it prints the parent's and the change's medians,
the change's relative move, how many pairs the change wins (is better in,
by the metric's direction in the change's BENCHMARK.json), and the
parent's quartile spread Q3 - Q1. The claim rule: a gain holds when the
change wins at least 9 of 10 pairs (90% of N) and its median is better
than the parent's by more than that spread. The `holds` column says whether
it does.

The `verdict` column applies the no-regression rule, which judges a change
that claims no gain, with each metric's `bound` in the change's
BENCHMARK.json, relative to the parent's median as `perfbench/repeat.py`
reads a spread: `worse` when the change's median is worse than the
parent's by more than the bound; `unresolved` when the parent's relative
quartile spread (Q3 - Q1) / median exceeds the bound and not every change
run beats every parent run; `ok` otherwise.

Each run's correctness (`correct`, failed over attempted) and metrics are
printed as it finishes, and a run that exits non-zero or reports failed
operations ends the comparison.

Nothing in either checkout is changed but perfbench's own scratch
directory (`perfbench/.work/`). `run_once` and the quartile spread follow
`perfbench/repeat.py`, whose `run_once` runs only its own checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int) -> dict:
    """The result line of one `perfbench/run.py` run in checkout `root`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{root}: perfbench exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: {result['failed']} of {result['attempted']} operations failed")
    return result


def summarize(parent: list, change: list, better: str, bound: float = math.inf) -> dict:
    """One metric's verdicts from its per-pair values (`parent[i]` and
    `change[i]` ran in pair i; `better` is "lower" or "higher"; `bound` is
    the metric's relative no-regression bound)."""
    sign = 1.0 if better == "lower" else -1.0
    q1, _, q3 = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    spread = q3 - q1
    if sign * (c_med - p_med) > bound * abs(p_med):
        verdict = "worse"
    elif spread > bound * abs(p_med) and not all(sign * (p - c) > 0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "parent": p_med,
        "change": c_med,
        "move": (c_med - p_med) / p_med if p_med else math.nan,
        "wins": wins,
        "spread": spread,
        "holds": wins >= math.ceil(0.9 * len(parent)) and sign * (p_med - c_med) > spread,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("need at least 2 pairs for quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(getattr(args, side), args.workload, args.seed)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs[side].append(values)
            print(f"pair {i + 1} {side}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{name}={v:.5g}" for name, v in values.items()), flush=True)
    print(f"\n{args.workload}, {args.pairs} pairs")
    print(f"{'metric':<14}{'parent':>12}{'change':>12}{'move':>9}{'wins':>7}{'spread':>12}  holds  verdict")
    for name, (better, bound) in metrics.items():
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]], better, bound)
        print(f"{name:<14}{s['parent']:>12.5g}{s['change']:>12.5g}{s['move']:>+9.1%}"
              f"{s['wins']:>4}/{args.pairs:<2}{s['spread']:>12.3g}  {'yes' if s['holds'] else 'no':<5}  {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
