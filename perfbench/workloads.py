"""The benchmark's workloads: scenario documents generated from the seed,
and the operations each workload runs, in order.

A workload is a session of operations run one at a time. Every CLI
operation is one call of ``ris_pls.cli.main`` in a fresh interpreter, as a
``ris-pls`` user runs it; the audit is one interpreter that calls
``ris_pls.algorithm1`` and ``ris_pls.exhaustive_oracle`` directly. The seed
sets the channel realization (``rng_seed``) and the seed-dependent choices
below; the cost of every operation is the same for every seed.

Each operation has a role, and every workload fills all three roles, so
each end-to-end metric exists on every workload. A role metric is the
median time of its operation; for the two kinds of codebook-query it is
the mean of the two kinds' medians, the time per query.

    role         wideband             tone-codebook          small-panel-audit
    batch_s      compare              codebook-gen           exhaustive_oracle (per call)
    followup_s   freq-selectivity     codebook-query         algorithm1 (per call)
    scan_s       pattern-scan         pattern-scan           pattern-scan
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

DEFAULT_SEED = 0

NAMES = ("wideband", "tone-codebook", "small-panel-audit")

ROLE = {
    "compare_s": "batch_s",
    "codebook_gen_s": "batch_s",
    "oracle_s": "batch_s",
    "freq_selectivity_s": "followup_s",
    "codebook_query_unknown_s": "followup_s",
    "codebook_query_excluded_s": "followup_s",
    "greedy_s": "followup_s",
    "pattern_scan_s": "scan_s",
}

REFERENCE_PAIRS = [
    [0.0, 15.0], [0.0, 30.0], [0.0, 45.0],
    [15.0, 0.0], [15.0, 30.0], [15.0, 45.0],
    [30.0, 0.0], [30.0, 15.0], [30.0, 45.0],
]
COMPARE_METHODS = ("alg1", "alg2", "lu_max", "ed_min", "uniform")
CODEBOOK_METHODS = ("alg1", "alg2", "lu_max", "ed_min")


@dataclass
class Step:
    """One operation of the session.

    `argv` builds the ``ris_pls.cli.main`` arguments (without --scenario
    and --out) from the first outputs of earlier steps; an audit step has
    `audit` (the child job) instead. `check` returns a list of problems
    found in the step's first output; `pinned` names the output files held
    against the reference at the default seed.
    """

    name: str
    label: str | None
    scenario: str
    check: Callable
    argv: Callable | None = None
    audit: dict | None = None
    pinned: tuple = ()

    def planned_ops(self) -> int:
        if self.audit is None:
            return 1
        return len(self.audit["pairs"]) * (self.audit["greedy_repeats"] + 1)


@dataclass
class Workload:
    name: str
    docs: dict  # scenario file name -> document
    steps: list


def scenario_doc(seed, n, centers=(0.0, 15.0, 30.0, 45.0), tx_mode="tone", num_rb=52, element="ideal"):
    """Scenario document of the reference desk layout (ris-pls/scenario-v1)."""
    return {
        "schema": "ris-pls/scenario-v1",
        "tx": {"azimuth_deg": -15.0, "range_m": 5.0, "height_m": 0.0},
        "sector_grid": {"sector_width_deg": 15.0, "sector_centers_deg": list(centers), "user_range_m": 7.0},
        "ris": {
            "n_v": n,
            "n_h": n,
            "element_spacing_m": 299_792_458.0 / 3.55e9 / 2.0,
            "tile_rows": min(n, 16),
            "tile_cols": min(n, 16),
        },
        "element_model": {
            "mode": element,
            "phase_at_center": [0.0, math.pi],
            "amplitude": 1.0,
            "center_hz": 3.55e9,
            "dispersion_rad_per_hz": 0.0,
            "resonance_hz": 3.55e9,
            "quality_factor": 50.0,
        },
        "channel": {
            "carrier_hz": 3.55e9,
            "num_paths": 8,
            "rician_k_db": 10.0,
            "max_excess_delay_s": 100e-9,
            "tx_beamwidth_deg": 20.0,
            "direct_path_suppression_db": 30.0,
            "rng_seed": seed % 2**64,
        },
        "tx_signal": {
            "mode": tx_mode,
            "tone_offset_hz": 100e3,
            "numerology_mu": 2,
            "cp_mode": "extended",
            "num_rb": num_rb,
        },
        "noise": {"n0": None, "target_snr_db": 10.0},
    }


def _angles(start, stop, step):
    """The angles pattern-scan reports for --start/--stop/--step."""
    return [start + i * step for i in range(int(round((stop - start) / step)) + 1)]


def _scan_argv(bits, start, stop, step):
    return ["pattern-scan", "--bits", bits, "--start", repr(start), "--stop", repr(stop), "--step", repr(step)]


def _write(work: Path, name: str, doc) -> str:
    path = work / name
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def wideband(seed, tiny, work):
    n, rb = (4, 4) if tiny else (32, 52)
    pairs = REFERENCE_PAIRS[-2:-1] if tiny else REFERENCE_PAIRS
    scan = (-60.0, 60.0, 60.0 if tiny else 2.0)
    docs = {
        "prs.json": scenario_doc(seed, n, tx_mode="prs", num_rb=rb),
        "lorentzian.json": scenario_doc(seed, n, tx_mode="prs", num_rb=rb, element="lorentzian"),
    }
    compare_spec = _write(work, "compare-spec.json", {"mode": "compare_methods", "pairs": pairs})
    fs_spec = _write(work, "fs-spec.json", {"mode": "frequency_selectivity", "pairs": pairs, "fs_num_rb": rb})

    def scan_bits(first):
        results = json.loads((first["compare"] / "compare_results.json").read_text())["results"]
        return next(r["config_bits"] for r in results if (r["lu_deg"], r["ed_deg"], r["method"]) == (30.0, 15.0, "alg1"))

    steps = [
        Step(
            "compare", "compare_s", "prs.json",
            argv=lambda first: ["compare", "--spec", compare_spec],
            check=lambda rx, out, first: checks.check_compare(rx, out, pairs, COMPARE_METHODS),
            pinned=("compare_powers.csv", "compare_sse.csv"),
        ),
        Step(
            "freq-selectivity", "freq_selectivity_s", "lorentzian.json",
            argv=lambda first: ["freq-selectivity", "--spec", fs_spec],
            check=lambda rx, out, first: checks.check_freq_selectivity(rx, out, pairs, rb),
            pinned=("frequency_selectivity.csv",),
        ),
        Step(
            "pattern-scan", "pattern_scan_s", "prs.json",
            argv=lambda first: _scan_argv(scan_bits(first), *scan),
            check=lambda rx, out, first: checks.check_scan(rx, out, scan_bits(first), _angles(*scan)),
            pinned=("power_pattern.csv",),
        ),
    ]
    return Workload("wideband", docs, steps)


def tone_codebook(seed, tiny, work):
    centers = (0.0, 15.0, 30.0, 45.0) if tiny else tuple(float(a) for a in range(-75, 76, 15))
    methods = ("alg1",) if tiny else CODEBOOK_METHODS
    scan_step = 10.0 if tiny else 0.1
    lu = random.Random(seed).choice([c for c in centers if c not in (15.0, 30.0)])
    docs = {"tone.json": scenario_doc(seed, 4 if tiny else 32, centers=centers)}

    def codebook(first):
        return str(first["codebook-gen"] / "codebook.json")

    def query(name, ed_arg, excluded):
        return Step(
            name, f"codebook_{name.replace('-', '_')}_s", "tone.json",
            argv=lambda first: ["codebook-query", "--codebook", codebook(first), "--lu", repr(lu), "--ed", ed_arg],
            check=lambda rx, out, first: checks.check_query(rx, out, codebook(first), lu, excluded),
            pinned=("codebook_query.json",),
        )

    def scan_bits(first):
        entries = json.loads(Path(codebook(first)).read_text())["entries"]
        return next(e["config_bits"] for e in entries if (e["lu_sector"], e["ed_sector"], e["method"]) == (30.0, 15.0, "alg1"))

    steps = [
        Step(
            "codebook-gen", "codebook_gen_s", "tone.json",
            argv=lambda first: ["codebook-gen", "--methods", *methods],
            check=lambda rx, out, first: checks.check_codebook(rx, out, methods),
            pinned=("codebook_powers.csv",),
        ),
        query("query-unknown", "unknown", ()),
        query("query-excluded", "excluded:15,30", (15.0, 30.0)),
        Step(
            "pattern-scan", "pattern_scan_s", "tone.json",
            argv=lambda first: ["pattern-scan", "--codebook", codebook(first), "--entry", "30", "15", "alg1",
                                "--step", repr(scan_step)],
            check=lambda rx, out, first: checks.check_scan(rx, out, scan_bits(first), _angles(-90.0, 90.0, scan_step)),
            pinned=("power_pattern.csv",),
        ),
    ]
    return Workload("tone-codebook", docs, steps)


def small_panel_audit(seed, tiny, work):
    pairs = sorted(random.Random(seed).sample(REFERENCE_PAIRS, 1 if tiny else 3))
    scan_step = 10.0 if tiny else 0.1
    docs = {"panel4.json": scenario_doc(seed, 4)}

    def scan_bits(first):
        return json.loads((first["audit"] / "audit.json").read_text())[0]["oracle"][0]

    steps = [
        Step(
            "audit", None, "panel4.json",
            audit={"pairs": pairs, "greedy_repeats": 1 if tiny else 25},
            check=lambda rx, out, first: checks.check_audit(rx, json.loads((out / "audit.json").read_text())),
            pinned=("audit.json",),
        ),
        Step(
            "pattern-scan", "pattern_scan_s", "panel4.json",
            argv=lambda first: _scan_argv(scan_bits(first), -90.0, 90.0, scan_step),
            check=lambda rx, out, first: checks.check_scan(rx, out, scan_bits(first), _angles(-90.0, 90.0, scan_step)),
            pinned=("power_pattern.csv",),
        ),
    ]
    return Workload("small-panel-audit", docs, steps)


def make(name, seed, tiny, work: Path) -> Workload:
    """Build a workload and write its scenario files into `work`."""
    wl = {"wideband": wideband, "tone-codebook": tone_codebook, "small-panel-audit": small_panel_audit}[name](
        seed, tiny, work
    )
    for file, doc in wl.docs.items():
        _write(work, file, doc)
    return wl
