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

import itertools
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from operator import itemgetter

import numpy as np

from .channel import Placement, SectorGrid, probe_links
from .fields import check_value, is_number
from .optimize import (
    METHODS,
    EvaluatorBatch,
    greedy_sweep,
    received_signal,
    reflection_coefficients,
)
from .ris import RisConfig
from .secrecy import LinkPowers, SecrecyReport, link_powers, sum_sse

CODEBOOK_SCHEMA = "ris-pls/codebook-v1"


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


def pair_batches(scenario, tx, pairs: list) -> list:
    """`pairs` in consecutive batches whose evaluators' cascades on the
    subcarriers of `tx` fit `SWEEP_BATCH_BYTES` together (one pair at
    least)."""
    pair_bytes = scenario.ris.num_elements * 2 * tx.num_subcarriers * np.dtype(complex).itemsize
    size = max(1, SWEEP_BATCH_BYTES // pair_bytes)
    return [pairs[i:i + size] for i in range(0, len(pairs), size)]


def sweep_pairs(scenario, tx, pairs: list, methods, keep, noise=None) -> list:
    """Run every method on every (lu, ed) `Placement` pair and return
    `keep(pair, method, config, trace, powers)` for each, pair by pair and
    method by method. `powers` are the (2, K) LU and ED powers per
    subcarrier of `config`, row i of one `EvaluatorBatch.powers` call per
    method and batch; `trace` is None for the uniform method.

    The pairs are swept in lockstep batches (`pair_batches`), one after
    another; the result does not depend on how the pairs are batched.
    Each batch's channel sets are taken as its sweep starts, from the
    scenario's `LinkTable.channel_sets` on the subcarriers of `tx`, so each
    placement's links are computed once and kept only while a pair still
    to come needs them; they serve all methods. `keep` runs as each
    method's sweep of a batch ends: a batch holds one method's traces at a
    time, and its `EvaluatorBatch` only until its last method is kept.
    """

    def kept(pairs, evs, method) -> list:
        configs, traces = run_method(method, scenario, evs, noise)
        powers = evs.powers(np.array([config.bits for config in configs]))
        return [keep(pair, method, *cell) for pair, *cell in zip(pairs, configs, traces, powers)]

    def sweep(batch) -> list:
        evs = EvaluatorBatch(list(itertools.islice(sets, len(batch))), scenario.element_model, tx)
        cells = [kept(batch, evs, method) for method in methods]
        return [cell for row in zip(*cells) for cell in row]

    sets = scenario.link_table(tx.freqs).channel_sets(pairs)
    return [cell for batch in pair_batches(scenario, tx, pairs) for cell in sweep(batch)]


#: A codebook record's scalar fields by JSON type: its own, its "achieved", its "sse".
_RECORD_FIELDS = (
    {"lu_sector": float, "ed_sector": float, "method": str, "config_bits": str, "n_v": int, "n_h": int},
    {"p_lu": float, "p_ed": float},
    {"r_lu": float, "r_ed": float, "r_sec_raw": float, "r_sec": float, "n0": float, "num_occupied": int},
)
_RECORD_TYPES = {name: t for names in _RECORD_FIELDS for name, t in names.items()}


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
        pattern = data.get("power_pattern")
        return cls(
            lu_sector=float(data["lu_sector"]),
            ed_sector=float(data["ed_sector"]),
            method=data["method"],
            config=RisConfig.from_bitstring(data["config_bits"], data["n_v"], data["n_h"]),
            achieved=LinkPowers(data["achieved"]["p_lu"], data["achieved"]["p_ed"]),
            sse=SecrecyReport(**{name: data["sse"][name] for name in SecrecyReport.__dataclass_fields__}),
            power_pattern=None if pattern is None else [(a, p) for a, p in pattern],
        )


def _record_keys(records: list, centers: tuple) -> list:
    """The (LU, ED, method) key of each record, once every record holds what
    `CodebookEntry.from_dict` reads (typed finite fields, two distinct sector
    centers, non-negative powers, n_v * n_h bits, [angle, power] pairs in a
    `power_pattern`, no key twice), each check over all records at once."""

    def reject(name: str, bad, what: str) -> None:
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(f"entry {i}: {name} must be {what}, not {col[name][i]!r}")

    parts = records, *(list(map(itemgetter(part), records)) for part in ("achieved", "sse"))
    col = {name: list(map(itemgetter(name), part)) for part, names in zip(parts, _RECORD_FIELDS) for name in names}
    for name, t in _RECORD_TYPES.items():  # JSON's own types pass at C speed
        if set(map(type, col[name])) - {t} or t is float and not np.isfinite(col[name]).all():
            for i, value in enumerate(col[name]):
                check_value(f"entry {i}: {name}", t.__name__, value)
    lu, ed, p_lu, p_ed = (np.array(col[name], float) for name in ("lu_sector", "ed_sector", "p_lu", "p_ed"))
    reject("lu_sector", ~np.isin(lu, centers), "a sector center of the grid")
    reject("ed_sector", ~np.isin(ed, centers) | (lu == ed), "a sector center other than lu_sector")
    reject("p_lu", p_lu < 0, "non-negative")
    reject("p_ed", p_ed < 0, "non-negative")
    bits = col["config_bits"]
    sizes = np.fromiter(map(len, bits), int, len(bits))
    # All bit-strings as one text, where any character but '0' and '1' reads > 1.
    text = np.frombuffer("".join(bits).encode("ascii", "replace"), np.uint8) - ord("0")
    bad_char = np.isin(range(len(bits)), np.cumsum(sizes).searchsorted(np.flatnonzero(text > 1), "right"))
    reject("config_bits", (sizes != np.multiply(col["n_v"], col["n_h"])) | bad_char, "n_v * n_h '0's and '1's")
    col["power_pattern"] = patterns = [r.get("power_pattern") for r in records]
    pairs = [p is None or isinstance(p, list) and all(isinstance(x, list) and len(x) == 2 for x in p) for p in patterns]
    reject("power_pattern", np.logical_not(pairs), "a list of [angle, power] pairs")
    col["key"] = keys = list(zip(lu.tolist(), ed.tolist(), col["method"]))
    first = {}
    reject("key", [first.setdefault(key, i) != i for i, key in enumerate(keys)], "unique")
    return keys


@dataclass
class Codebook:
    """Entries by (LU, ED, method) key: in a loaded codebook, a checked record until `get` builds its entry."""

    grid: SectorGrid
    scenario_digest: str
    entries: dict = field(default_factory=dict)

    def add(self, entry: CodebookEntry) -> None:
        self.entries[entry.key] = entry

    def get(self, lu_sector: float, ed_sector: float, method: str) -> CodebookEntry:
        key = (float(lu_sector), float(ed_sector), method)
        if key not in self.entries:
            raise KeyError(f"no codebook entry for {key}")
        if isinstance(self.entries[key], dict):
            self.entries[key] = CodebookEntry.from_dict(self.entries[key])
        return self.entries[key]

    def entries_for_lu(self, lu_sector: float, method: str) -> list:
        return [self.get(*key) for key in sorted(k for k in self.entries if k[0] == lu_sector and k[2] == method)]

    def to_dict(self) -> dict:
        return {
            "schema": CODEBOOK_SCHEMA,
            "grid": asdict(self.grid),
            "scenario_digest": self.scenario_digest,
            "entries": [self.get(*key).to_dict() for key in sorted(self.entries)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Codebook":
        grid, records = SectorGrid(**data["grid"]), data["entries"]
        return cls(grid, data["scenario_digest"], dict(zip(_record_keys(records, grid.sector_centers_deg), records)))

    @classmethod
    def load(cls, path) -> "Codebook":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def generate_codebook(scenario, methods=("alg1",)) -> Codebook:
    """Optimize every ordered pair of the scenario's sectors with every
    method, at the placements `select_config` re-scores.

    Produces |methods| * S * (S - 1) entries for S sectors, through
    `sweep_pairs`.
    """
    if not methods:
        raise ValueError("method list must not be empty")
    grid = scenario.sector_grid
    if len(grid.sector_centers_deg) < 2:
        raise ValueError("codebook generation needs at least two sectors")
    n0 = scenario.noise_power()  # calibrated once, before the sweeps
    places = [scenario.placement(c) for c in grid.sector_centers_deg]
    pairs = [(lu, ed) for lu in places for ed in places if lu != ed]

    def entry(pair, method, config, trace, powers) -> CodebookEntry:
        lu, ed = pair
        return CodebookEntry(lu.azimuth_deg, ed.azimuth_deg, method, config, link_powers(powers), sum_sse(powers, n0))

    cb = Codebook(grid=grid, scenario_digest=scenario.digest())
    for e in sweep_pairs(scenario, scenario.tx_signal(), pairs, methods, entry):
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
    negative; it is reported unclamped. Each batch of admissible sectors
    (`pair_batches`) re-scores every candidate in one `EvaluatorBatch`.

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
    candidates = cb.entries_for_lu(lu_sector, method)
    if not candidates:
        raise KeyError(f"codebook holds no entries for sector {lu_sector}")
    admissible = [c for c in centers if c != lu_sector and c not in ed_knowledge.excluded]
    if not admissible:
        raise ValueError("excluded region covers every eavesdropper sector")
    tx_sig, n0, lu = scenario.tx_signal(), scenario.noise_power(), scenario.placement(lu_sector)
    pairs = [(lu, scenario.placement(ed)) for ed in admissible]
    sets = scenario.link_table(tx_sig.freqs).channel_sets(pairs)
    worst = [math.inf] * len(candidates)
    for batch in pair_batches(scenario, tx_sig, pairs):
        evs = EvaluatorBatch(list(itertools.islice(sets, len(batch))), scenario.element_model, tx_sig)
        for i, cand in enumerate(candidates):  # min(w, rate) in sector order
            worst[i] = min(worst[i], *(sum_sse(p, n0).r_sec_raw for p in evs.powers(cand.config.bits)))
        del evs  # one batch's cascades at a time
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
    The links are kept nowhere, so the scan leaves the scenario's
    `LinkTable`s as it found them. A configuration of another panel is an
    error, and so are a range a `Placement` rejects and a probe whose
    signal is not finite: the error names the first such angle.
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
