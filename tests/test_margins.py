"""Decision margins and pinned outputs of the benchmark's seed-0 runs.

A greedy sweep keeps a move only on strict improvement, and a codebook
query keeps the candidate with the best guarantee, so a sum taken in
another order can flip a decision only where both sides lie within its
rounding, about 1e-13 relative. These tests rebuild the benchmark's seed-0
inputs with `perfbench/workloads.py`, run its prs `compare`, its
lorentzian `freq-selectivity`, its tone `codebook-gen`, both of its
codebook queries and both workloads' `pattern-scan` through the CLI, and
require every decision margin (`helpers.smallest_margin`) of the compare,
the codebook and the queries to exceed `MARGIN`. Each of those steps'
pinned files must also match its reference in `perfbench/reference/`
(`checks.matches_reference`: CSVs byte for byte, JSON within 1e-9).
The queries and the entry scan must also build only the codebook entries
they read.
"""

import json
import sys
from pathlib import Path

import pytest

from helpers import rescore, smallest_margin
from ris_pls import codebook
from ris_pls.cli import EXIT_OK, main
from ris_pls.codebook import Codebook, CodebookEntry, EdKnowledge
from ris_pls.optimize import SweepLog
from ris_pls.scenario import Scenario

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))
import checks  # noqa: E402  (the benchmark's reference comparison)
import workloads  # noqa: E402  (the benchmark's workload definitions)

REFERENCE = BENCH / "reference"

MARGIN = 1e-9

#: The steps the `runs` fixture runs, in workload order.
PINNED_STEPS = {
    "wideband": ("compare", "freq-selectivity", "pattern-scan"),
    "tone-codebook": ("codebook-gen", "query-unknown", "query-excluded", "pattern-scan"),
}


def run_step(work, step, first, out):
    """Run a benchmark step through the CLI into `out`, as the benchmark
    does; returns the `SweepLog` of every greedy sweep it ran."""
    logs = {}
    run_method = codebook.run_method

    def recording(method, scenario, batch, noise=None):
        configs, traces = run_method(method, scenario, batch, noise)
        for trace in traces:
            if trace is not None:
                logs[id(trace.log)] = trace.log
        return configs, traces

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codebook, "run_method", recording)
        argv = [*step.argv(first), "--scenario", str(work / step.scenario), "--out", str(out)]
        assert main(argv) == EXIT_OK
    return list(logs.values())


def test_smallest_margin():
    log = SweepLog([])
    log.entries.append((0, 1, [1.0, 2.0], [1.5, 2.0 * (1 + 1e-6)], [True, True]))
    log.entries.append((1, 2, [1.0, 3.0], [0.5, 1.0], [False, False]))
    assert smallest_margin(log) == pytest.approx(1e-6, rel=1e-5)
    assert smallest_margin([0.5, -1.5, 0.4]) == pytest.approx(0.2)


def decisions(logs) -> int:
    return sum(len(before) for log in logs for _, _, before, *_ in log.entries)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(work directory, workload, first output directory per step, sweep
    logs per step) of the wideband and tone-codebook workloads at seed 0."""
    out = {}
    for name in ("wideband", "tone-codebook"):
        work = tmp_path_factory.mktemp(name)
        wl = workloads.make(name, workloads.DEFAULT_SEED, False, work)
        first, logs = {}, {}
        for step in wl.steps:
            if step.name in PINNED_STEPS[name]:
                first[step.name] = work / f"{step.name}-0"
                logs[step.name] = run_step(work, step, first, first[step.name])
        out[name] = (work, wl, first, logs)
    return out


def test_compare_margins(runs):
    _, _, _, logs = runs["wideband"]
    sweeps = logs["compare"]
    # 9 pairs by 4 greedy methods, each pair a batch of its own; the
    # uniform method does not sweep.
    assert len(sweeps) == 36 and sum(len(log.entries[0][2]) for log in sweeps) == 36
    assert decisions(sweeps) == 5184
    assert min(smallest_margin(log) for log in sweeps) > MARGIN


def test_codebook_gen_margins(runs):
    _, _, _, logs = runs["tone-codebook"]
    sweeps = logs["codebook-gen"]
    # 110 ordered sector pairs by 4 methods, one lockstep batch per method.
    assert sum(len(log.entries[0][2]) for log in sweeps) == 440
    assert decisions(sweeps) == 63360
    assert min(smallest_margin(log) for log in sweeps) > MARGIN


@pytest.mark.parametrize("name", ["query-unknown", "query-excluded"])
def test_query_margins(runs, name):
    work, wl, first, logs = runs["tone-codebook"]
    assert logs[name] == []
    result = json.loads((first[name] / "codebook_query.json").read_text())
    known = result["ed_knowledge"]
    knowledge = EdKnowledge.excluded_region(known["excluded"]) if known["kind"] == "excluded" else EdKnowledge.unknown()
    scenario = Scenario.from_dict(wl.docs["tone.json"])
    cb = Codebook.load(first["codebook-gen"] / "codebook.json")
    lu = result["lu_sector"]
    admissible = [c for c in cb.grid.sector_centers_deg if c != lu and c not in knowledge.excluded]
    candidates = cb.entries_for_lu(lu, result["method"])
    guarantees = [
        min(rescore(scenario, cand.config, lu, ed) for ed in admissible) for cand in candidates
    ]
    best = max(range(len(candidates)), key=guarantees.__getitem__)
    assert result["config_bits"] == candidates[best].config.to_bitstring()
    assert result["guaranteed_sse"] == guarantees[best]
    assert len(candidates) == 10
    assert smallest_margin(guarantees) > MARGIN


@pytest.mark.parametrize("step_name, builds", [("query-unknown", 10), ("query-excluded", 10), ("pattern-scan", 1)])
def test_codebook_reads_build_only_their_entries(runs, tmp_path, monkeypatch, step_name, builds):
    # A query reads the serving sector's 10 alg1 candidates, the scan one
    # entry; the load checks all 440 records and builds none.
    work, wl, first, _ = runs["tone-codebook"]
    (step,) = [step for step in wl.steps if step.name == step_name]
    built = []
    post_init = CodebookEntry.__post_init__
    monkeypatch.setattr(CodebookEntry, "__post_init__", lambda entry: built.append(entry.key) or post_init(entry))
    assert main([*step.argv(first), "--scenario", str(work / step.scenario), "--out", str(tmp_path)]) == EXIT_OK
    assert len(json.loads((first["codebook-gen"] / "codebook.json").read_text())["entries"]) == 440
    assert len(built) == len(set(built)) == builds
    assert {(lu, method) for lu, _, method in built} == {(float(step.argv(first)[4]), "alg1")}


@pytest.mark.parametrize("name, step_name", [(name, step) for name, steps in PINNED_STEPS.items() for step in steps])
def test_pinned_outputs_match_the_references(runs, name, step_name):
    _, wl, first, _ = runs[name]
    (step,) = [step for step in wl.steps if step.name == step_name]
    assert step.pinned
    for file in step.pinned:
        ref = REFERENCE / name / f"{step_name}.{file}"
        assert checks.matches_reference(first[step_name] / file, ref), f"{file} differs from {ref}"
