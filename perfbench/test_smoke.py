"""Smoke test of the benchmark harness at tiny sizes (4x4 panels, one pair,
one session). It checks the harness's output contract and that the checks
pass; it makes no timing assertions.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_same_inputs():
    work = BENCH / ".work"
    docs = []
    for _ in range(2):
        assert bench("--workload", "small-panel-audit", "--seed", "5", "--seconds", "1", "--tiny").returncode == 0
        docs.append((work / "small-panel-audit-seed5-trace0-tiny" / "panel4.json").read_text())
    assert docs[0] == docs[1]


def test_fails_without_program_sources():
    bare = BENCH / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "wideband", cwd=bare, script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
