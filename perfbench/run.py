"""ris-pls benchmark: end-to-end and per-layer timings of the paper's batch runs.

Usage (from the repository root):

    python3 perfbench/run.py --workload wideband --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

The harness runs one operation at a time (a closed loop with one client).
Each run first completes one session of the workload's operations, then
repeats operations while each still fits in --seconds, then checks the
outputs. With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 the run times one untraced
session and then traced sessions, and reports the per-layer metrics.
Scratch files go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
RUN_LIMIT_S = 150.0  # children are stopped after this; checks follow
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (  # name, unit, what it is
    ("setup_s", "s", "median child set-up: interpreter start, import ris_pls, scenario loaded"),
    ("batch_s", "s", "median time of the workload's batch operation"),
    ("followup_s", "s", "median time of one follow-up operation (mean over its kinds)"),
    ("scan_s", "s", "median pattern-scan time"),
    ("peak_rss_mb", "MB", "largest child max-RSS"),
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail(values):
    """(q, value) of the highest percentile with at least 10 samples beyond it."""
    v = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(q / 100.0 * len(v))
        if len(v) - rank >= 10:
            return q, v[rank - 1]
    return None


def git_head(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def metadata():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_ENV,
        "git_head": git_head(ROOT),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name, seed, seconds, trace, tiny):
        self.seed, self.seconds, self.trace, self.tiny = seed, seconds, trace, tiny
        self.work = BENCH / ".work" / f"{name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.wl = workloads.make(name, seed, tiny, self.work)
        self.env = dict(os.environ, **BLAS_ENV)
        self.start = now()
        self.jobs = 0
        self.first = {}  # step name -> output dir of its first run
        self.samples = defaultdict(list)  # label -> seconds (untraced)
        self.setup, self.rss = [], []
        self.attempted = self.failed = 0
        self.problems = []
        self.wall = {}  # step name -> last wall seconds
        self.stopped = False

    def fail(self, ops, problem):
        self.failed += ops
        self.problems.append(problem)

    def child(self, step, out, traced):
        """Run one child; returns its result dict or None."""
        self.jobs += 1
        job = {
            "src": str(SRC),
            "scenario": str(self.work / step.scenario),
            "trace": traced,
            "result": str(self.work / f"result-{self.jobs}.json"),
            "spans": str(self.work / f"spans-{self.jobs}.json"),
        }
        if step.audit is None:
            job.update(kind="cli", argv=step.argv(self.first) + ["--scenario", job["scenario"], "--out", str(out)])
        else:
            job.update(kind="audit", **step.audit)
        job_path = self.work / f"job-{self.jobs}.json"
        job["spawned"] = now()
        job_path.write_text(json.dumps(job))
        log = self.work / f"log-{self.jobs}.txt"
        budget = RUN_LIMIT_S - (now() - self.start)
        with open(log, "w") as fh:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), str(job_path)],
                    cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT, timeout=max(budget, 1.0),
                )
            except subprocess.TimeoutExpired:
                self.stopped = True
                self.attempted += step.planned_ops()
                self.fail(step.planned_ops(), f"{step.name}: stopped after the {RUN_LIMIT_S:.0f} s run limit")
                return None
        self.attempted += step.planned_ops()
        result_path = Path(job["result"])
        if proc.returncode != 0 or not result_path.is_file():
            self.fail(step.planned_ops(), f"{step.name}: child exited {proc.returncode}, see {log}")
            return None
        result = json.loads(result_path.read_text())
        if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
            self.fail(step.planned_ops(), f"{step.name}: imported ris_pls from {result['module']}")
            return None
        bad = [op for op in result["ops"] if op["exit"] != 0 or op["error"]]
        if bad:
            self.fail(step.planned_ops(), f"{step.name}: exit {bad[0]['exit']} {bad[0]['error'] or ''} (log {log})")
            return None
        return result

    def execute(self, step, rep, traced=False):
        out = self.work / f"{step.name}-{'t' if traced else ''}{rep}"
        t0 = now()
        result = self.child(step, out, traced)
        self.wall[step.name] = now() - t0
        if result is None:
            return None
        if not traced:
            self.setup.append(result["setup_s"])
            for op in result["ops"]:
                self.samples[op["label"] or step.label].append(op["seconds"])
        self.rss.append(result["max_rss_mb"])
        if step.audit is not None:
            out.mkdir(parents=True, exist_ok=True)
            (out / "audit.json").write_text(json.dumps(result["pairs"], indent=1) + "\n")
        if step.name not in self.first:
            self.first[step.name] = out
        else:
            first = self.first[step.name]
            names = sorted(p.name for p in first.iterdir())
            _, mismatch, errors = filecmp.cmpfiles(first, out, names, shallow=False)
            if mismatch or errors:
                self.fail(1, f"{step.name}: rerun output differs from the first run: {mismatch + errors}")
            shutil.rmtree(out)
        return result

    def session(self, traced=False, tag=0):
        """Run every step once; returns (op seconds, span files) or None."""
        total, spans = 0.0, []
        for step in self.wl.steps:
            if self.stopped:
                return None
            result = self.execute(step, tag, traced)
            if result is None:
                return None
            total += sum(op["seconds"] for op in result["ops"])
            if traced:
                spans.append(json.loads(Path(self.work / f"spans-{self.jobs}.json").read_text()))
        return total, spans

    def elapsed(self):
        return now() - self.start

    def measure(self):
        """Untraced: one session, then repeat each operation while it still
        fits in the run. Traced: one untraced session, then traced sessions
        while they fit (at least one); returns the per-layer metrics."""
        untraced = self.session()
        if untraced is None:
            return None
        if not self.trace:
            rep, ran = 1, True
            while ran and not self.stopped:
                ran = False
                for step in self.wl.steps:
                    if self.elapsed() + self.wall[step.name] <= self.seconds and not self.stopped:
                        self.execute(step, rep)
                        rep, ran = rep + 1, True
            return None
        traced, tag = [], 1
        while not self.stopped:
            t0 = now()
            s = self.session(traced=True, tag=tag)
            if s is None:
                break
            traced.append(s)
            tag += 1
            if self.elapsed() + (now() - t0) > self.seconds:
                break
        if not traced:
            return None
        written = sum(
            p.stat().st_size
            for step in self.wl.steps if step.audit is None
            for p in self.first[step.name].iterdir()
        )
        per_session = [tracer.layer_metrics(spans, t, untraced[0], written) for t, spans in traced]
        absent = per_session[0][1]
        metrics = {
            name: statistics.median(m[name] for m, _ in per_session) for name, _, _, _ in tracer.PER_LAYER
        }
        return metrics, absent, len(per_session)

    def check(self, write_reference):
        sys.path.insert(0, str(SRC))
        import ris_pls

        receivers = {f: checks.Receiver(ris_pls, doc) for f, doc in self.wl.docs.items()}
        pinned = self.seed == workloads.DEFAULT_SEED and not self.tiny
        ref_dir = REFERENCE / self.wl.name
        for step in self.wl.steps:
            if step.name not in self.first:
                continue
            try:
                problems = step.check(receivers[step.scenario], self.first[step.name], self.first)
            except Exception:  # a malformed output must fail the operation, not the run
                problems = [traceback.format_exc()]
            out = self.first[step.name]
            for file in step.pinned if pinned else ():
                ref = ref_dir / f"{step.name}.{file}"
                if write_reference:
                    ref_dir.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(out / file, ref)
                elif not ref.is_file() or not checks.matches_reference(out / file, ref):
                    problems.append(f"{file} differs from the pinned reference {ref.relative_to(ROOT)}")
            if problems:
                self.failed += min(step.planned_ops(), len(problems))
                self.problems += [f"{step.name}: {p}" for p in problems]


def end_to_end(run):
    by_role = defaultdict(list)
    for label, values in run.samples.items():
        by_role[workloads.ROLE[label]].append(statistics.median(values))
    values = {role: statistics.fmean(medians) for role, medians in by_role.items()}
    if run.setup:
        values["setup_s"] = statistics.median(run.setup)
    if run.rss:
        values["peak_rss_mb"] = max(run.rss)
    return {name: values.get(name, 0.0) for name, _, _ in END_TO_END}


def describe(label, values):
    line = f"  {label:<26} median {statistics.median(values):10.4f} s"
    t = tail(values)
    return line + f"  n={len(values)}" + (f"  p{t[0]:g} {t[1]:.4f} s" if t else "")


def run_workload(name, args):
    run = Run(name, args.seed, args.seconds, bool(args.trace), args.tiny)
    layers = run.measure()
    run.check(args.write_reference)
    meta = metadata()
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for label in sorted(run.samples, key=lambda lb: (workloads.ROLE[lb], lb)):
        print(describe(label, run.samples[label]) + f"  -> {workloads.ROLE[label]}")
    if run.setup:
        print(describe("setup_s", run.setup))
    e2e = end_to_end(run)
    for metric, unit, what in END_TO_END:
        print(f"  {metric:<26} {e2e[metric]:.4f} {unit}  ({what})")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'op_fail_ratio':<26} {ratio:.4f}  ({run.failed} of {run.attempted} operations failed)")
    for problem in run.problems[:10]:
        print(f"  FAILED {problem}", file=sys.stderr)
    absent = []
    if run.trace:
        if layers is None:
            run.fail(1, "no traced session completed")
            metrics = {n: {"value": 0, "unit": u} for n, u, _, _ in tracer.PER_LAYER}
        else:
            values, absent, sessions = layers
            print(f"  per-layer metrics, median of {sessions} traced session(s):")
            for n, u, _, _ in tracer.PER_LAYER:
                print(f"    {n:<36} {values[n]:14.6f} {u}{'  ABSENT' if n in absent else ''}")
            metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in tracer.PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u, _ in END_TO_END}
    print("meta " + json.dumps(meta))
    summary = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }
    detail = dict(summary, workload=name, seed=args.seed, trace=args.trace, meta=meta, absent=absent,
                  problems=run.problems, samples=run.samples, setup=run.setup, rss=run.rss)
    (run.work / "summary.json").write_text(json.dumps(detail, indent=1) + "\n")
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="4x4 panels, one pair, one session (harness smoke test)")
    p.add_argument("--write-reference", action="store_true",
                   help="store the default seed's outputs as the pinned references")
    args = p.parse_args(argv)
    if not (SRC / "ris_pls" / "__init__.py").is_file():
        print(f"perfbench: no ris_pls sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args) for name in names}
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
