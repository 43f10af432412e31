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
from dataclasses import asdict, dataclass, field

import numpy as np

from .channel import Placement, SectorGrid, probe_links
from .fields import is_number
from .optimize import (
    METHODS,
    EvaluatorBatch,
    channel_powers,
    greedy_sweep,
    received_signal,
    reflection_coefficients,
)
from .ris import RisConfig
from .secrecy import LinkPowers, SecrecyReport, link_powers, sum_sse

CODEBOOK_SCHEMA = "ris-pls/codebook-v1"


def pair_powers(scenario, lu: Placement, ed: Placement, tx, bits) -> np.ndarray:
    """`channel_powers` of `bits` on the scenario's channels to (lu, ed)."""
    return channel_powers(scenario.channels_for(lu, ed, tx.freqs), scenario.element_model, tx, bits)


def pair_evaluators(scenario, pairs: list, tx) -> EvaluatorBatch:
    """The scenario's channels to each (lu, ed) pair at the subcarriers of
    `tx`, as the rows of one `EvaluatorBatch` for lockstep sweeps."""
    channel_sets = [scenario.channels_for(lu, ed, tx.freqs) for lu, ed in pairs]
    return EvaluatorBatch(channel_sets, scenario.element_model, tx)


def run_method(method, scenario, batch: EvaluatorBatch, noise=None) -> tuple:
    """Run one named configuration method on the channel set of each row
    of `batch`, the sweeps in lockstep; returns (configs, traces), one of
    each per row. The uniform method has no traces (None each); the
    others' traces are a `TraceBatch`."""
    if method == "uniform":
        return [RisConfig.zeros(scenario.ris.n_v, scenario.ris.n_h) for _ in range(len(batch))], [None] * len(batch)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    traces = greedy_sweep(method, batch, scenario.ris, noise=noise)
    return [trace.final_config for trace in traces], traces


#: Bytes of cascades one lockstep batch of sweeps may stack. An 11-sector
#: single-tone codebook on a 32x32 panel (110 pairs of 32 KB) is one
#: batch; a pair on the 312 occupied subcarriers of a 52-block comb grid
#: (10 MB) is a batch of its own, where stacking would only copy.
SWEEP_BATCH_BYTES = 8 * 2**20


def pair_batches(scenario, tx, pairs: list, jobs: int = 1) -> list:
    """`pairs` in consecutive batches whose evaluators' cascades on the
    subcarriers of `tx` fit `SWEEP_BATCH_BYTES` together (one pair at
    least), cut into at least `jobs` batches when there are that many
    pairs, so that every worker takes one."""
    pair_bytes = scenario.ris.num_elements * 2 * tx.num_subcarriers * np.dtype(complex).itemsize
    size = max(1, min(SWEEP_BATCH_BYTES // pair_bytes, -(-len(pairs) // jobs)))
    return [pairs[i:i + size] for i in range(0, len(pairs), size)]


def sweep_pairs(scenario, tx, pairs: list, methods, keep, noise=None, jobs: int = 1) -> list:
    """Run every method on every (lu, ed) `Placement` pair and return
    `keep(pair, method, config, trace, powers)` for each, pair by pair and
    method by method. `powers` are the (2, K) LU and ED powers per
    subcarrier of `config`, row i of one `EvaluatorBatch.powers` call per
    method and batch; `trace` is None for the uniform method.

    Each pair's channels are synthesized once, on the subcarriers of `tx`,
    and serve all methods. The pairs are swept in lockstep batches
    (`pair_batches`), and `jobs` workers take batches; the result does not
    depend on how the pairs are batched or on the execution order. `keep`
    runs in the worker, as each method's sweep of a batch ends: a batch
    holds one method's traces at a time, and its `EvaluatorBatch` only
    until its last method is kept. Workers run under the caller's
    `np.errstate`, which threads do not inherit.
    """
    errors = np.geterr()

    def kept(pairs, evs, method) -> list:
        configs, traces = run_method(method, scenario, evs, noise)
        powers = evs.powers(np.array([config.bits for config in configs]))
        return [keep(pair, method, *cell) for pair, *cell in zip(pairs, configs, traces, powers)]

    def sweep(pairs) -> list:
        with np.errstate(**errors):
            evs = pair_evaluators(scenario, pairs, tx)
            cells = [kept(pairs, evs, method) for method in methods]
        return [cell for row in zip(*cells) for cell in row]

    batches = pair_batches(scenario, tx, pairs, jobs)
    if jobs <= 1:
        results = map(sweep, batches)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(sweep, batches))
    return [cell for cells in results for cell in cells]


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
        return [e for (lu, _, meth), e in sorted(self.entries.items()) if lu == lu_sector and meth == method]

    def to_dict(self) -> dict:
        return {
            "schema": CODEBOOK_SCHEMA,
            "grid": asdict(self.grid),
            "scenario_digest": self.scenario_digest,
            "entries": [e.to_dict() for _, e in sorted(self.entries.items())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Codebook":
        cb = cls(grid=SectorGrid(**data["grid"]), scenario_digest=data["scenario_digest"])
        for raw in data["entries"]:
            cb.add(CodebookEntry.from_dict(raw))
        return cb

    @classmethod
    def load(cls, path) -> "Codebook":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def generate_codebook(scenario, grid: SectorGrid | None = None, methods=("alg1",), jobs: int = 1) -> Codebook:
    """Optimize every ordered sector pair with every method.

    Produces |methods| * S * (S - 1) entries for S sectors, through
    `sweep_pairs` on `jobs` workers.
    """
    if not methods:
        raise ValueError("method list must not be empty")
    grid = grid if grid is not None else scenario.sector_grid
    if len(grid.sector_centers_deg) < 2:
        raise ValueError("codebook generation needs at least two sectors")
    n0 = scenario.noise_power()  # calibrated once, before any fan-out
    places = [Placement(c, grid.user_range_m) for c in grid.sector_centers_deg]
    pairs = [(lu, ed) for lu in places for ed in places if lu != ed]

    def entry(pair, method, config, trace, powers) -> CodebookEntry:
        lu, ed = pair
        return CodebookEntry(lu.azimuth_deg, ed.azimuth_deg, method, config, link_powers(powers), sum_sse(powers, n0))

    cb = Codebook(grid=grid, scenario_digest=scenario.digest())
    for e in sweep_pairs(scenario, scenario.tx_signal(), pairs, methods, entry, jobs=jobs):
        cb.add(e)
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
    are synthesized once and re-score every candidate.

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
    tx_sig, n0, lu = scenario.tx_signal(), scenario.noise_power(), scenario.placement(lu_sector)
    worst = [math.inf] * len(candidates)
    bits = np.array([e.config.bits for e in candidates])
    for ed in admissible:
        p = pair_powers(scenario, lu, scenario.placement(ed), tx_sig, bits)
        worst = [min(w, sum_sse(p_i, n0).r_sec_raw) for w, p_i in zip(worst, p)]
    # The first of equal guarantees wins.
    best = max(range(len(candidates)), key=worst.__getitem__)
    return candidates[best], float(worst[best])


def scan_power_pattern(
    scenario,
    config: RisConfig,
    angles,
    range_m: float | None = None,
) -> list:
    """Received power of a probe receiver at each azimuth under `config`.

    The probe channel is the deterministic single-ray model of
    `channel.probe_links`, so the pattern reflects the panel's angular
    response rather than one scatter draw. Each probe's power is the
    receive equation of `EvaluatorBatch`, summed over the subcarriers the
    transmit signal carries. A probe's panel link is rank one, amp *
    outer(delay, steering), so its cascade sums over all elements and over
    those set to 1 are amp * delay times its steering row's products with
    g and g * bits: one matrix product each per chunk from `probe_links`.
    The links bypass the panel-link memo, so the scan leaves it as it
    found it. A configuration of another panel is an error, and so are a
    range a `Placement` rejects and a probe whose signal is not finite: the
    error names the first such angle.
    """
    ris = scenario.ris
    if (config.n_v, config.n_h) != (ris.n_v, ris.n_h):
        raise ValueError(f"a {config.n_v}x{config.n_h} configuration cannot be scanned on a {ris.n_v}x{ris.n_h} panel")
    angles = list(angles)
    if not angles:
        raise ValueError("angle list must not be empty")
    for a in angles:
        if not (is_number(a) and -90.0 <= a <= 90.0):
            raise ValueError(f"scan angles must be numbers in [-90, 90] degrees, not {a!r}")
    range_m = Placement(0.0, scenario.sector_grid.user_range_m if range_m is None else range_m).range_m
    tx_sig = scenario.tx_signal()
    x = tx_sig.symbols
    phi = reflection_coefficients(scenario.element_model, tx_sig.freqs)
    g, chunks = probe_links(scenario.tx, angles, range_m, ris, scenario.channel, tx_sig.freqs)
    g_on = g * config.bits.astype(float)
    powers = []
    for h_d, amp, delay, steering in chunks:
        scale = amp[:, None] * delay
        y = received_signal(h_d, phi, scale * (steering @ g.T), scale * (steering @ g_on.T), x)
        finite = np.isfinite(y).all(axis=1)
        if not finite.all():
            angle = angles[len(powers) + int(np.argmin(finite))]
            raise ValueError(f"the probe at {angle:g} degrees receives a non-finite signal")
        powers.extend((np.abs(y) ** 2).sum(axis=1).tolist())
    return [(float(a), p) for a, p in zip(angles, powers)]


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
