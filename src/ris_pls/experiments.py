"""Experiment runners: placement sweeps, codebook workflows, and the
frequency-selectivity study. Each runner consumes an ExperimentSpec plus a
Scenario and writes reproducible CSV/JSON artifacts (atomic writes, a
schema string heading every file, dB values rounded to two decimals in CSV
and kept at full precision in JSON)."""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, replace

from .codebook import (
    Codebook,
    EdKnowledge,
    generate_codebook,
    scan_power_pattern,
    select_config,
    sweep_pairs,
)
from .fields import check_types, is_number
from .ofdm import MAX_NUM_RB
from .optimize import METHODS, MeasurementNoise, channel_powers
from .ris import RisConfig
from .secrecy import from_db, link_powers, sum_sse, to_db
from .scenario import Scenario

MODES = (
    "compare_methods",
    "codebook_gen",
    "codebook_query",
    "pattern_scan",
    "frequency_selectivity",
)

COMPARE_METHODS = (*METHODS, "uniform")

#: The nine (LU, ED) azimuth pairs of the reference measurement layout.
DEFAULT_PAIRS = (
    (0.0, 15.0),
    (0.0, 30.0),
    (0.0, 45.0),
    (15.0, 0.0),
    (15.0, 30.0),
    (15.0, 45.0),
    (30.0, 0.0),
    (30.0, 15.0),
    (30.0, 45.0),
)


#: Most azimuths one pattern scan probes: a 0.002-degree step over the
#: full 180 degrees. A finer step is taken as a mistake, not as work.
MAX_SCAN_ANGLES = 100_000

#: Most noisy readings averaged into one power estimate. A sweep reads
#: every scored move, and each reading draws its averages one noise vector
#: at a time, so a larger count is taken as a mistake, not as work.
MAX_MEASUREMENT_AVERAGES = 1024


class SpecError(ValueError):
    """The experiment spec file is missing or malformed."""


class ScenarioError(ValueError):
    """The scenario file is missing or malformed."""


@dataclass
class ExperimentSpec:
    mode: str
    scenario_path: str | None = None
    out_dir: str = "."
    pairs: tuple = DEFAULT_PAIRS
    methods: tuple = COMPARE_METHODS
    seeds: tuple | None = None
    noisy_measurements: bool = False
    measurement_noise_db: float = -20.0
    measurement_averages: int = 4
    # codebook generation / query
    codebook_path: str | None = None
    query_lu: float | None = None
    query_ed: dict | str | None = None
    query_method: str = "alg1"
    # pattern scan
    scan_config_bits: str | None = None
    scan_entry: tuple | None = None
    scan_start_deg: float = -90.0
    scan_stop_deg: float = 90.0
    scan_step_deg: float = 0.5
    scan_range_m: float | None = None
    scan_attach: bool = False
    # frequency selectivity
    fs_method: str = "alg1"
    fs_num_rb: int = 52
    fs_degenerate_single_bin: bool = False

    def __post_init__(self):
        check_types(self, SpecError)
        if self.mode not in MODES:
            raise SpecError(f"unknown mode {self.mode!r}")
        pairs = [tuple(pair) for pair in self.pairs]
        for pair in pairs:
            if len(pair) != 2 or not all(is_number(a) and -90.0 <= a <= 90.0 for a in pair):
                raise SpecError(f"pair {list(pair)} must hold two azimuths in [-90, 90] degrees")
            if pair[0] == pair[1]:
                raise SpecError(f"pair ({pair[0]:g}, {pair[1]:g}) places LU and ED at the same azimuth")
        self.pairs = tuple((float(lu), float(ed)) for lu, ed in pairs)
        self.methods = tuple(self.methods)
        for m in self.methods:
            if m not in COMPARE_METHODS:
                raise SpecError(f"unknown method {m!r}")
        if len(set(self.methods)) < len(self.methods):
            raise SpecError(f"methods {list(self.methods)} name a method twice")
        if self.seeds is not None:
            self.seeds = tuple(self.seeds)
            if not all(isinstance(s, int) and not isinstance(s, bool) and 0 <= s < 2**64 for s in self.seeds):
                raise SpecError(f"seeds must be integers in [0, 2**64), not {list(self.seeds)}")
        if not self.scan_step_deg > 0:
            raise SpecError("scan step must be a positive number of degrees")
        if not (-90.0 <= self.scan_start_deg <= self.scan_stop_deg <= 90.0):
            raise SpecError("scan start and stop must be azimuths in [-90, 90] degrees, start first")
        self.scan_angles()
        if not (self.scan_range_m is None or self.scan_range_m > 0):
            raise SpecError("scan range must be a positive number of meters")
        for name in ("measurement_averages", "fs_num_rb"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be a positive integer")
        if self.measurement_averages > MAX_MEASUREMENT_AVERAGES:
            raise SpecError(
                f"measurement_averages {self.measurement_averages} exceeds {MAX_MEASUREMENT_AVERAGES} readings"
            )
        if self.fs_num_rb > MAX_NUM_RB:
            raise SpecError(f"fs_num_rb {self.fs_num_rb} exceeds the {MAX_NUM_RB} resource blocks of a carrier")
        for name in ("query_method", "fs_method"):
            if getattr(self, name) not in COMPARE_METHODS:
                raise SpecError(f"unknown {name} {getattr(self, name)!r}")
        if self.scan_entry is not None:
            entry = self.scan_entry
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3 and all(map(is_number, entry[:2]))):
                raise SpecError(f"scan entry must be [LU degrees, ED degrees, method], not {entry!r}")
            lu, ed, method = entry
            if method not in COMPARE_METHODS:
                raise SpecError(f"unknown scan entry method {method!r}")
            self.scan_entry = (float(lu), float(ed), method)

    def scan_angles(self) -> list:
        """Pattern-scan azimuths from start in whole steps, the last one
        within half a step of stop; more than `MAX_SCAN_ANGLES` is a spec
        error."""
        steps = (self.scan_stop_deg - self.scan_start_deg) / self.scan_step_deg
        # Compared before rounding, since the quotient may be infinite.
        if not steps < MAX_SCAN_ANGLES - 0.5:
            raise SpecError(
                f"a scan step of {self.scan_step_deg:g} degrees asks for more than "
                f"{MAX_SCAN_ANGLES} angles"
            )
        return [self.scan_start_deg + i * self.scan_step_deg for i in range(round(steps) + 1)]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if "mode" not in data:
            raise SpecError("spec document lacks a mode")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known - {"schema"}
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        kwargs = {k: v for k, v in data.items() if k in known}
        try:
            return cls(**kwargs)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError(str(exc)) from exc

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise SpecError(f"cannot read spec file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SpecError("spec document must be a JSON object")
        return cls.from_dict(data)


def load_scenario(path) -> Scenario:
    try:
        return Scenario.load(path)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except (json.JSONDecodeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def _load_codebook(path) -> Codebook:
    """The codebook at `path`; an unreadable file is a spec error, a
    malformed document (like its scenario) a scenario error."""
    try:
        return Codebook.load(path)
    except OSError as exc:
        raise SpecError(f"cannot read codebook: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed codebook: {exc}") from exc


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # O_EXCL on a random name, as mkstemp does, but with mode 0666 so the
    # process umask decides the final permissions.
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(schema: str, header: list, rows: list) -> str:
    lines = [f"# schema={schema}", ",".join(header)]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _fmt_db(value: float) -> str:
    if math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return f"{value:.2f}"


def _power_csv(schema: str, pairs, methods, powers_db) -> str:
    """A received-power table: one row per (LU, ED) azimuth pair, one LU
    and ED dB column per method, from `powers_db(lu, ed, method)`."""
    header = ["lu_deg", "ed_deg"] + [f"{method}_{side}_db" for method in methods for side in ("lu", "ed")]
    rows = [
        [f"{lu:g}", f"{ed:g}", *(_fmt_db(p) for method in methods for p in powers_db(lu, ed, method))]
        for lu, ed in pairs
    ]
    return _csv_text(schema, header, rows)


def _measurement_noise(spec: ExperimentSpec, scenario: Scenario, seed: int):
    """The noise of noisy power readings, or None without them; a
    `measurement_noise_db` whose noise power is 0 or beyond the float
    range is a spec error."""
    if not spec.noisy_measurements:
        return None
    try:
        scale = from_db(spec.measurement_noise_db)
    except OverflowError:
        scale = math.inf
    n0 = scenario.noise_power() * scale
    if not 0.0 < n0 < math.inf:
        raise SpecError(
            f"measurement_noise_db {spec.measurement_noise_db!r} gives no positive finite noise power"
        )
    return MeasurementNoise(n0=n0, averages=spec.measurement_averages, seed=seed)


def run_compare(scenario: Scenario, spec: ExperimentSpec) -> dict:
    """Optimize every (pair, method) cell and emit the comparison tables.

    Writes a received-power CSV with one row per placement pair and one
    LU/ED column pair per method, a raw-SSE matrix CSV, and a JSON file
    holding full precision results and optimizer traces. With several
    seeds the CSVs hold the per-cell mean over seeds. The seeds run one
    after another, each through `sweep_pairs` with its noise calibrated
    once; each noisy sweep draws from its own generator.
    """
    seeds = spec.seeds if spec.seeds else (scenario.seed,)
    results = []
    for seed in seeds:
        scen = scenario.with_seed(seed)
        n0 = scen.noise_power()  # calibrated once, before the sweeps

        def cell(pair, method, config, trace, p) -> dict:
            powers, sse = link_powers(p), sum_sse(p, n0)
            return {
                "seed": seed,
                "lu_deg": pair[0].azimuth_deg,
                "ed_deg": pair[1].azimuth_deg,
                "method": method,
                "p_lu": powers.p_lu,
                "p_ed": powers.p_ed,
                "lu_db": powers.lu_db,
                "ed_db": powers.ed_db,
                "sse_raw": sse.r_sec_raw,
                "sse_clamped": sse.r_sec,
                "config_bits": config.to_bitstring(),
                "trace": None if trace is None else trace.to_dict(),
            }

        pairs = [(scen.placement(lu), scen.placement(ed)) for lu, ed in spec.pairs]
        noise = _measurement_noise(spec, scen, seed)
        results += sweep_pairs(scen, scen.tx_signal(), pairs, spec.methods, cell, noise)

    by_cell = {}
    for r in results:
        by_cell.setdefault((r["lu_deg"], r["ed_deg"], r["method"]), []).append(r)

    def mean_db(lu, ed, method):
        rs = by_cell[(lu, ed, method)]
        return [to_db(sum(r["p_" + side] for r in rs) / len(rs)) for side in ("lu", "ed")]

    sse_header = ["lu_deg", "ed_deg"] + [f"{m}_sse" for m in spec.methods]
    sse_rows = []
    for pair in spec.pairs:
        row = [f"{pair[0]:g}", f"{pair[1]:g}"]
        for method in spec.methods:
            rs = by_cell[(pair[0], pair[1], method)]
            row.append(f"{sum(r['sse_raw'] for r in rs) / len(rs):.4f}")
        sse_rows.append(row)

    out = {}
    out["powers_csv"] = os.path.join(spec.out_dir, "compare_powers.csv")
    _atomic_write(out["powers_csv"], _power_csv("compare-powers-v1", spec.pairs, spec.methods, mean_db))
    out["sse_csv"] = os.path.join(spec.out_dir, "compare_sse.csv")
    _atomic_write(out["sse_csv"], _csv_text("compare-sse-v1", sse_header, sse_rows))
    out["json"] = os.path.join(spec.out_dir, "compare_results.json")
    payload = {
        "schema": "compare-results-v1",
        "scenario_digest": scenario.digest(),
        "seeds": list(seeds),
        "methods": list(spec.methods),
        "pairs": [list(p) for p in spec.pairs],
        "results": results,
    }
    _atomic_write(out["json"], json.dumps(payload, indent=1) + "\n")
    return out


def run_frequency_selectivity(scenario: Scenario, spec: ExperimentSpec) -> dict:
    """Narrowband-vs-wideband power separation under one configuration.

    Optimizes every placement pair with the tone waveform, then
    re-evaluates each pair's configuration on the wideband comb grid with
    the scenario's element model, taking each placement's wideband links
    once (`LinkTable.channel_sets`). Reports the LU-ED gap for both
    waveforms. A frequency-flat element model cannot show a gap collapse,
    which is flagged as a warning but still runs.
    """
    if scenario.element_model.mode == "ideal":
        warnings.warn(
            "ideal element model is frequency-flat: the wideband gap cannot "
            "collapse; running anyway",
            stacklevel=2,
        )
    tone = replace(scenario, tx_mode="tone").tx_signal()
    comb = replace(scenario, tx_mode="prs", num_rb=spec.fs_num_rb)
    wide = tone if spec.fs_degenerate_single_bin else comb.tx_signal()
    places = [(scenario.placement(lu_deg), scenario.placement(ed_deg)) for lu_deg, ed_deg in spec.pairs]
    def keep(pair, method, config, trace, p):
        return config, link_powers(p)

    narrowband = sweep_pairs(scenario, tone, places, (spec.fs_method,), keep)
    wideband = scenario.link_table(wide.freqs).channel_sets(places)
    rows = []
    detail = []
    for (lu_deg, ed_deg), (config, nb), channels in zip(spec.pairs, narrowband, wideband):
        wb = link_powers(channel_powers(channels, scenario.element_model, wide, config.bits))
        nb_gap = nb.lu_db - nb.ed_db
        wb_gap = wb.lu_db - wb.ed_db
        rows.append(
            [
                f"{lu_deg:g}",
                f"{ed_deg:g}",
                _fmt_db(nb_gap),
                _fmt_db(wb_gap),
                _fmt_db(nb_gap - wb_gap),
            ]
        )
        detail.append(
            {
                "lu_deg": lu_deg,
                "ed_deg": ed_deg,
                "narrowband_gap_db": nb_gap,
                "wideband_gap_db": wb_gap,
                "narrowband": {"lu_db": nb.lu_db, "ed_db": nb.ed_db},
                "wideband": {"lu_db": wb.lu_db, "ed_db": wb.ed_db},
                "config_bits": config.to_bitstring(),
            }
        )
    out = {}
    out["csv"] = os.path.join(spec.out_dir, "frequency_selectivity.csv")
    header = ["lu_deg", "ed_deg", "narrowband_gap_db", "wideband_gap_db", "gap_shrink_db"]
    _atomic_write(out["csv"], _csv_text("freq-selectivity-v1", header, rows))
    out["json"] = os.path.join(spec.out_dir, "frequency_selectivity.json")
    payload = {
        "schema": "freq-selectivity-v1",
        "scenario_digest": scenario.digest(),
        "element_mode": scenario.element_model.mode,
        "method": spec.fs_method,
        "wideband_bins": wide.num_subcarriers,
        "results": detail,
    }
    _atomic_write(out["json"], json.dumps(payload, indent=1) + "\n")
    return out


def run_codebook_gen(scenario: Scenario, spec: ExperimentSpec) -> dict:
    methods = tuple(m for m in spec.methods if m != "uniform")
    if not methods:
        raise SpecError("codebook generation needs at least one optimizing method")
    cb = generate_codebook(scenario, methods=methods)
    out = {}
    out["codebook"] = spec.codebook_path or os.path.join(spec.out_dir, "codebook.json")
    _atomic_write(out["codebook"], json.dumps(cb.to_dict()) + "\n")
    out["csv"] = os.path.join(spec.out_dir, "codebook_powers.csv")
    centers = cb.grid.sector_centers_deg
    pairs = [(lu, ed) for lu in centers for ed in centers if lu != ed]

    def achieved_db(lu, ed, method):
        achieved = cb.get(lu, ed, method).achieved
        return achieved.lu_db, achieved.ed_db

    _atomic_write(out["csv"], _power_csv("codebook-powers-v1", pairs, methods, achieved_db))
    return out


def _parse_ed_knowledge(raw) -> EdKnowledge:
    if raw is None or raw == "unknown":
        return EdKnowledge.unknown()
    if isinstance(raw, dict) and not {"known", "excluded"} & raw.keys():
        raise SpecError("eavesdropper knowledge must be 'unknown', {'known': deg} or {'excluded': [deg,..]}")
    try:
        if not isinstance(raw, dict):
            return EdKnowledge.known(float(raw))
        if "known" in raw:
            return EdKnowledge.known(raw["known"])
        return EdKnowledge.excluded_region(raw["excluded"])
    except (TypeError, ValueError) as exc:
        raise SpecError(f"cannot parse eavesdropper knowledge {raw!r}") from exc


def run_codebook_query(scenario: Scenario, spec: ExperimentSpec) -> dict:
    if spec.codebook_path is None:
        raise SpecError("codebook query needs a codebook path")
    if spec.query_lu is None:
        raise SpecError("codebook query needs the serving sector")
    cb = _load_codebook(spec.codebook_path)
    knowledge = _parse_ed_knowledge(spec.query_ed)
    lu_sector, snap = cb.grid.nearest_center(spec.query_lu)
    if snap > 0:
        warnings.warn(
            f"query sector {spec.query_lu:g} snapped to center {lu_sector:g} "
            f"({snap:g} degrees away)",
            stacklevel=2,
        )
    entry, guaranteed = select_config(
        cb, lu_sector, knowledge, scenario=scenario, method=spec.query_method
    )
    result = {
        "schema": "codebook-query-v1",
        "lu_sector": lu_sector,
        "snap_distance_deg": snap,
        "ed_knowledge": {
            "kind": knowledge.kind,
            "sector": knowledge.sector,
            "excluded": list(knowledge.excluded),
        },
        "method": spec.query_method,
        "entry": {"lu_sector": entry.lu_sector, "ed_sector": entry.ed_sector},
        "config_bits": entry.config.to_bitstring(),
        "guaranteed_sse": guaranteed,
    }
    out = {"json": os.path.join(spec.out_dir, "codebook_query.json")}
    _atomic_write(out["json"], json.dumps(result, indent=1) + "\n")
    out["stdout"] = f"{entry.config.to_bitstring()}\nguaranteed_sse={guaranteed:.6f}"
    return out


def run_pattern_scan(scenario: Scenario, spec: ExperimentSpec) -> dict:
    if spec.scan_config_bits is not None:
        if spec.scan_attach:
            raise SpecError("attaching a pattern (--attach) needs a codebook entry (--entry), not --bits")
        n_v, n_h = scenario.ris.n_v, scenario.ris.n_h
        try:
            config = RisConfig.from_bitstring(spec.scan_config_bits, n_v, n_h)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    elif spec.scan_entry is not None:
        if spec.codebook_path is None:
            raise SpecError("scanning a codebook entry needs the codebook path")
        cb = _load_codebook(spec.codebook_path)
        entry = cb.get(*spec.scan_entry)
        config = entry.config
    else:
        raise SpecError("pattern scan needs either config bits or a codebook entry")
    pattern = scan_power_pattern(scenario, config, spec.scan_angles(), range_m=spec.scan_range_m)
    rows = [
        [f"{angle:g}", f"{power:.6e}", _fmt_db(to_db(power)) if power > 0 else "-inf"]
        for angle, power in pattern
    ]
    out = {"csv": os.path.join(spec.out_dir, "power_pattern.csv")}
    _atomic_write(
        out["csv"], _csv_text("power-pattern-v1", ["angle_deg", "power", "power_db"], rows)
    )
    if spec.scan_attach:
        entry.power_pattern = pattern
        _atomic_write(spec.codebook_path, json.dumps(cb.to_dict()) + "\n")
        out["codebook"] = spec.codebook_path
    return out


def run(scenario: Scenario, spec: ExperimentSpec) -> dict:
    runner = {
        "compare_methods": run_compare,
        "codebook_gen": run_codebook_gen,
        "codebook_query": run_codebook_query,
        "pattern_scan": run_pattern_scan,
        "frequency_selectivity": run_frequency_selectivity,
    }[spec.mode]
    return runner(scenario, spec)
