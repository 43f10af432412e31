"""Configuration codebooks over user sectors, and power-pattern scanning.

A codebook holds one optimized configuration per ordered (LU sector,
ED sector) pair and method, generated from a scenario whose digest it
records. At query time the caller states what is known about the
eavesdropper: its sector, a set of excluded sectors, or nothing. For the
latter two cases the stored candidates for the LU sector are re-scored
against every admissible eavesdropper sector and the max-min choice is
returned, together with the (possibly negative) guaranteed secrecy rate.

Because a 1-bit panel quantizes phases so coarsely, an optimized entry can
put nearly as much power into unintended directions as into the serving
sector. `scan_power_pattern` sweeps a probe receiver over fine angles to
expose those side lobes, and `detect_side_lobes` flags the ones close to
the serving power.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .channel import Placement, SectorGrid, probe_links
from .optimize import (
    METHODS,
    PowerEvaluator,
    greedy_sweep,
    received_signal,
    reflection_coefficients,
    uniform_config,
)
from .ris import RisConfig
from .secrecy import LinkPowers, SecrecyReport, powers_and_sse, sum_sse

CODEBOOK_SCHEMA = "ris-pls/codebook-v1"


def pair_evaluator(scenario, lu: Placement, ed: Placement, tx) -> PowerEvaluator:
    """The power evaluator of the scenario's channels to (lu, ed) at the
    subcarriers of `tx`."""
    return PowerEvaluator(scenario.channels_for(lu, ed, tx.freqs), scenario.element_model, tx)


def run_method(method, scenario, ev: PowerEvaluator, noise=None):
    """Run one named configuration method on the channel set of `ev`;
    returns (config, trace or None)."""
    if method == "uniform":
        return uniform_config(scenario.ris.n_v, scenario.ris.n_h), None
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    trace = greedy_sweep(method, ev, scenario.ris, noise=noise)
    return trace.final_config, trace


def parallel_map(fn, items, jobs: int) -> list:
    """`[fn(item) for item in items]`, on `jobs` threads when jobs > 1."""
    if jobs <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


@dataclass
class CodebookEntry:
    lu_sector: float
    ed_sector: float
    method: str
    config: RisConfig
    achieved: LinkPowers
    sse: SecrecyReport
    power_pattern: list | None = None

    def __post_init__(self):
        if self.lu_sector == self.ed_sector:
            raise ValueError("intended receiver and eavesdropper share a sector")

    @property
    def key(self) -> tuple:
        return (self.lu_sector, self.ed_sector, self.method)

    def to_dict(self) -> dict:
        out = {
            "lu_sector": self.lu_sector,
            "ed_sector": self.ed_sector,
            "method": self.method,
            "config_bits": self.config.to_bitstring(),
            "n_v": self.config.n_v,
            "n_h": self.config.n_h,
            "achieved": self.achieved.to_dict(),
            "sse": self.sse.to_dict(),
        }
        if self.power_pattern is not None:
            out["power_pattern"] = [[a, p] for a, p in self.power_pattern]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CodebookEntry":
        sse = data["sse"]
        pattern = data.get("power_pattern")
        return cls(
            lu_sector=float(data["lu_sector"]),
            ed_sector=float(data["ed_sector"]),
            method=data["method"],
            config=RisConfig.from_bitstring(data["config_bits"], data["n_v"], data["n_h"]),
            achieved=LinkPowers(data["achieved"]["p_lu"], data["achieved"]["p_ed"]),
            sse=SecrecyReport(
                r_lu=sse["r_lu"],
                r_ed=sse["r_ed"],
                r_sec_raw=sse["r_sec_raw"],
                r_sec=sse["r_sec"],
                n0=sse["n0"],
                num_occupied=sse["num_occupied"],
                headline_clamped=sse.get("headline_clamped", False),
            ),
            power_pattern=None if pattern is None else [(a, p) for a, p in pattern],
        )


@dataclass
class Codebook:
    grid: SectorGrid
    scenario_digest: str
    entries: dict = field(default_factory=dict)

    def add(self, entry: CodebookEntry) -> None:
        self.entries[entry.key] = entry

    def get(self, lu_sector: float, ed_sector: float, method: str) -> CodebookEntry:
        key = (float(lu_sector), float(ed_sector), method)
        if key not in self.entries:
            raise KeyError(f"no codebook entry for {key}")
        return self.entries[key]

    def entries_for_lu(self, lu_sector: float, method: str) -> list:
        return [
            e
            for (lu, _, meth), e in sorted(self.entries.items())
            if lu == lu_sector and meth == method
        ]

    def is_complete(self, methods) -> bool:
        centers = self.grid.sector_centers_deg
        for method in methods:
            for lu in centers:
                for ed in centers:
                    if lu != ed and (lu, ed, method) not in self.entries:
                        return False
        return True

    def to_dict(self) -> dict:
        return {
            "schema": CODEBOOK_SCHEMA,
            "grid": {
                "sector_width_deg": self.grid.sector_width_deg,
                "sector_centers_deg": list(self.grid.sector_centers_deg),
                "user_range_m": self.grid.user_range_m,
            },
            "scenario_digest": self.scenario_digest,
            "entries": [e.to_dict() for _, e in sorted(self.entries.items())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Codebook":
        grid_raw = dict(data["grid"])
        grid_raw["sector_centers_deg"] = tuple(grid_raw["sector_centers_deg"])
        cb = cls(grid=SectorGrid(**grid_raw), scenario_digest=data["scenario_digest"])
        for raw in data["entries"]:
            cb.add(CodebookEntry.from_dict(raw))
        return cb

    @classmethod
    def load(cls, path) -> "Codebook":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _build_entries(scenario, grid, tx_sig, methods, pair) -> list:
    """One entry per method for a sector pair, all from one evaluator."""
    lu_c, ed_c = pair
    lu = Placement(lu_c, grid.user_range_m)
    ed = Placement(ed_c, grid.user_range_m)
    ev = pair_evaluator(scenario, lu, ed, tx_sig)
    entries = []
    for method in methods:
        config, _ = run_method(method, scenario, ev)
        achieved, sse = powers_and_sse(ev, config.bits, scenario.noise_power())
        entries.append(CodebookEntry(lu_c, ed_c, method, config, achieved, sse))
    return entries


def generate_codebook(scenario, grid: SectorGrid | None = None, methods=("alg1",), jobs: int = 1) -> Codebook:
    """Optimize every ordered sector pair with every method.

    Produces |methods| * S * (S - 1) entries for S sectors. Each sector
    pair's channels are synthesized once and serve all methods. Pairs are
    independent, so they may be generated in parallel; the result does not
    depend on the execution order.
    """
    if not methods:
        raise ValueError("method list must not be empty")
    grid = grid if grid is not None else scenario.sector_grid
    if len(grid.sector_centers_deg) < 2:
        raise ValueError("codebook generation needs at least two sectors")
    tx_sig = scenario.tx_signal()
    scenario.noise_power()  # fill the calibration cache before any fan-out
    pairs = [
        (lu, ed) for lu in grid.sector_centers_deg for ed in grid.sector_centers_deg if lu != ed
    ]
    cb = Codebook(grid=grid, scenario_digest=scenario.digest())
    for entries in parallel_map(partial(_build_entries, scenario, grid, tx_sig, methods), pairs, jobs):
        for entry in entries:
            cb.add(entry)
    return cb


@dataclass(frozen=True)
class EdKnowledge:
    """What the selector may assume about the eavesdropper's location."""

    kind: str
    sector: float | None = None
    excluded: tuple = ()

    @classmethod
    def known(cls, sector: float) -> "EdKnowledge":
        return cls(kind="known", sector=float(sector))

    @classmethod
    def excluded_region(cls, sectors) -> "EdKnowledge":
        return cls(kind="excluded", excluded=tuple(float(s) for s in sectors))

    @classmethod
    def unknown(cls) -> "EdKnowledge":
        return cls(kind="unknown")


def rescore_config(scenario, config: RisConfig, lu_sector: float, ed_sector: float) -> float:
    """Raw secrecy rate of a fixed configuration against a hypothetical
    eavesdropper sector (channels re-synthesized from the scenario)."""
    tx_sig = scenario.tx_signal()
    ev = pair_evaluator(scenario, scenario.placement(lu_sector), scenario.placement(ed_sector), tx_sig)
    return sum_sse(ev, config.bits, scenario.noise_power()).r_sec_raw


def select_config(
    cb: Codebook,
    lu_sector: float,
    ed_knowledge: EdKnowledge,
    scenario=None,
    method: str = "alg1",
) -> tuple:
    """Pick a codebook entry for a serving sector.

    known(e): the stored (lu, e) entry with its stored raw secrecy rate.
    excluded_region(X) / unknown: among the stored candidates for the
    serving sector, the entry maximizing the minimum re-scored secrecy
    rate over admissible eavesdropper sectors. The guarantee may be
    negative; it is reported unclamped. Each admissible sector's channels
    are synthesized once and re-score every candidate; the result equals
    `rescore_config` called per (candidate, sector).

    Returns (entry, guaranteed_sse).
    """
    centers = cb.grid.sector_centers_deg
    if lu_sector not in centers:
        raise ValueError(f"{lu_sector} is not a sector of this codebook")
    if ed_knowledge.kind == "known":
        entry = cb.get(lu_sector, ed_knowledge.sector, method)
        return entry, entry.sse.r_sec_raw
    if scenario is None:
        raise ValueError("re-scoring selection needs the generating scenario")
    if scenario.digest() != cb.scenario_digest:
        warnings.warn(
            "scenario digest does not match the codebook; re-scoring against "
            "a different environment",
            stacklevel=2,
        )
    if ed_knowledge.kind == "excluded":
        admissible = [
            c for c in centers if c != lu_sector and c not in ed_knowledge.excluded
        ]
        if not admissible:
            raise ValueError("excluded region covers every eavesdropper sector")
    else:
        admissible = [c for c in centers if c != lu_sector]
    candidates = cb.entries_for_lu(lu_sector, method)
    if not candidates:
        raise KeyError(f"codebook holds no entries for sector {lu_sector}")
    tx_sig = scenario.tx_signal()
    n0 = scenario.noise_power()
    lu = scenario.placement(lu_sector)
    worst = [math.inf] * len(candidates)
    for ed in admissible:
        ev = pair_evaluator(scenario, lu, scenario.placement(ed), tx_sig)
        worst = [min(w, sum_sse(ev, e.config.bits, n0).r_sec_raw) for w, e in zip(worst, candidates)]
    # The first of equal guarantees wins.
    best = max(range(len(candidates)), key=worst.__getitem__)
    return candidates[best], float(worst[best])


def scan_power_pattern(
    scenario,
    config: RisConfig,
    angles,
    range_m: float | None = None,
    full_scenario: bool = False,
) -> list:
    """Received power of a probe receiver at each azimuth under `config`.

    The probe channel is a deterministic single-ray model by default so the
    pattern reflects the panel's angular response rather than one scatter
    draw; `full_scenario` switches to the scenario's full ray model. Each
    probe's power is the receive equation of `PowerEvaluator`, summed over
    the occupied subcarriers only. Probe links come from
    `channel.probe_links`, so the scan leaves the panel-link memo as it
    found it.
    """
    angles = list(angles)
    if not angles:
        raise ValueError("angle list must not be empty")
    for a in angles:
        if not -90.0 <= a <= 90.0:
            raise ValueError("scan angles must lie in [-90, 90] degrees")
    range_m = scenario.sector_grid.user_range_m if range_m is None else range_m
    params = scenario.channel if full_scenario else replace(scenario.channel, num_paths=1)
    tx_sig = scenario.tx_signal()
    mask = tx_sig.occupied_mask
    freqs = tx_sig.freqs[mask]
    x = tx_sig.amplitudes()[mask]
    phi = reflection_coefficients(scenario.element_model, freqs)
    on = config.bits.astype(float)
    probes = (Placement(a, range_m) for a in angles)
    g, links = probe_links(scenario.tx, probes, scenario.ris, params, freqs)
    pattern = []
    for angle, (h_d, h) in zip(angles, links):
        w = h * g
        y = received_signal(h_d, phi, w.sum(axis=1), w @ on, x)
        if not np.isfinite(y).all():
            raise ValueError(f"the probe at {angle:g} degrees receives a non-finite signal")
        pattern.append((float(angle), float((np.abs(y) ** 2).sum())))
    return pattern


def detect_side_lobes(
    pattern,
    lu_angle_deg: float,
    threshold_db: float,
    sector_width_deg: float = 15.0,
) -> list:
    """Angles far from the serving direction whose power reaches within
    `threshold_db` of the serving power.

    Only angles at least two sector widths away qualify; threshold 0 flags
    lobes that meet or exceed the serving power.
    """
    angles = np.array([a for a, _ in pattern], dtype=float)
    powers = np.array([p for _, p in pattern], dtype=float)
    if not angles.min() <= lu_angle_deg <= angles.max():
        raise ValueError("serving angle lies outside the scanned pattern")
    order = np.argsort(angles)
    lu_power = float(np.interp(lu_angle_deg, angles[order], powers[order]))
    floor = lu_power * 10.0 ** (-threshold_db / 10.0)
    min_sep = 2.0 * sector_width_deg
    hits = (np.abs(angles - lu_angle_deg) >= min_sep) & (powers >= floor)
    return [float(a) for a in angles[hits]]
