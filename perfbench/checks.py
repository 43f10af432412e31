"""Correctness checks of the benchmark's operation outputs.

Every reported configuration is re-evaluated here by a direct sum of the
receive equation,

    y_k = h_d(f_k) + sum_m h_m(f_k) * phi(c_m, f_k) * g_m(f_k),

with the element reflection phi, the subcarrier grid and the comb
occupancy recomputed from the scenario document rather than taken from
the program. Only the channel realizations come from
``ris_pls.synthesize_channels``. Reported powers must agree within
TOL_DB. The checks hold for every seed; at the default seed the outputs
must also equal the pinned references.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

TOL_DB = 0.01
TOL_SSE = 1e-6
TOL_REF = 1e-9


def subcarriers(doc, kind, num_rb=None):
    """(freqs, occupied mask) of the tone or the comb grid of a scenario."""
    sig = doc["tx_signal"]
    mu = sig["numerology_mu"]
    spacing = 15e3 * 2**mu
    carrier = doc["channel"]["carrier_hz"]
    if kind == "tone":
        return np.array([carrier + round(sig["tone_offset_hz"] / spacing) * spacing]), np.array([True])
    k = 12 * (num_rb or sig["num_rb"])
    idx = np.arange(k)
    return carrier + (idx - k // 2) * spacing, idx % (12 // (12 // mu)) == 0


def reflection(em, freqs):
    """(K, 2) complex reflection coefficient of bit 0 and bit 1."""
    base = np.asarray(em["phase_at_center"], dtype=float)
    if em["mode"] == "ideal":
        dev = np.zeros_like(freqs)
    elif em["mode"] == "linear_dispersion":
        dev = em["dispersion_rad_per_hz"] * (freqs - em["center_hz"])
    else:
        fr, q = em["resonance_hz"], em["quality_factor"]

        def lorentz(f):
            return -2.0 * np.arctan(2.0 * q * (f - fr) / fr)

        dev = lorentz(freqs) - lorentz(em["center_hz"])
    theta = np.clip(base[None, :] + dev[:, None], 0.0, math.pi)
    return em["amplitude"] * np.exp(1j * theta)


def db(p):
    return 10.0 * math.log10(p) if p > 0 else -math.inf


class Receiver:
    """Direct-sum received powers for one scenario document."""

    def __init__(self, ris_pls, doc):
        self.rp = ris_pls
        self.doc = doc
        self.scenario = ris_pls.Scenario.from_dict(doc)
        self._channels = {}

    def channels(self, lu, ed, freqs, num_paths=None):
        key = (lu, ed, freqs.tobytes(), num_paths)
        if key not in self._channels:
            scen = self.scenario
            if num_paths is not None:
                scen = replace(scen, channel=replace(scen.channel, num_paths=num_paths))
            rng = scen.sector_grid.user_range_m
            self._channels[key] = scen.channels_for(
                self.rp.Placement(lu, rng), self.rp.Placement(ed, rng), freqs
            )
        return self._channels[key]

    def per_bin(self, bits, lu, ed, kind=None, num_rb=None, num_paths=None):
        """Per-occupied-subcarrier powers |y_k|^2 at LU and ED (|x_k| = 1)."""
        freqs, mask = subcarriers(self.doc, kind or self.doc["tx_signal"]["mode"], num_rb)
        ch = self.channels(lu, ed, freqs, num_paths)
        c = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        phi = reflection(self.doc["element_model"], freqs)[:, c]
        y_lu = ch.h_d_lu + (ch.h_ris_lu * phi * ch.g_ris).sum(axis=1)
        y_ed = ch.h_d_ed + (ch.h_ris_ed * phi * ch.g_ris).sum(axis=1)
        return np.abs(y_lu[mask]) ** 2, np.abs(y_ed[mask]) ** 2

    def powers(self, bits, lu, ed, **kw):
        p_lu, p_ed = self.per_bin(bits, lu, ed, **kw)
        return float(p_lu.sum()), float(p_ed.sum())

    def noise_power(self):
        """n0 of the scenario: configured, or calibrated so the all-zeros
        panel gives the LU at 0 degrees the target SNR per occupied bin."""
        noise = self.doc["noise"]
        if noise["n0"] is not None:
            return noise["n0"]
        ris = self.doc["ris"]
        p_lu, _ = self.per_bin("0" * (ris["n_v"] * ris["n_h"]), 0.0, 15.0)
        return p_lu.mean() / 10.0 ** (noise["target_snr_db"] / 10.0)

    def raw_sse(self, bits, lu, ed, n0):
        p_lu, p_ed = self.per_bin(bits, lu, ed)
        return float(np.log2(1.0 + p_lu / n0).sum() - np.log2(1.0 + p_ed / n0).sum())


def _close_db(problems, what, reported_db, power):
    if not abs(reported_db - db(power)) <= TOL_DB:
        problems.append(f"{what}: reported {reported_db:.4f} dB, direct sum {db(power):.4f} dB")


def check_compare(rx, out, pairs, methods):
    res = json.loads((out / "compare_results.json").read_text())["results"]
    problems = []
    cells = sorted((r["lu_deg"], r["ed_deg"], r["method"]) for r in res)
    if cells != sorted((lu, ed, m) for lu, ed in pairs for m in methods):
        problems.append(f"compare reported cells {cells}")
    for r in res:
        p_lu, p_ed = rx.powers(r["config_bits"], r["lu_deg"], r["ed_deg"])
        cell = f"compare ({r['lu_deg']:g}, {r['ed_deg']:g}, {r['method']})"
        _close_db(problems, cell + " LU", r["lu_db"], p_lu)
        _close_db(problems, cell + " ED", r["ed_db"], p_ed)
    return problems


def check_freq_selectivity(rx, out, pairs, num_rb):
    res = json.loads((out / "frequency_selectivity.json").read_text())["results"]
    problems = []
    if [(r["lu_deg"], r["ed_deg"]) for r in res] != [tuple(p) for p in pairs]:
        problems.append("freq-selectivity reported other pairs")
    for r in res:
        for band, kind, rb in (("narrowband", "tone", None), ("wideband", "prs", num_rb)):
            p_lu, p_ed = rx.powers(r["config_bits"], r["lu_deg"], r["ed_deg"], kind=kind, num_rb=rb)
            cell = f"freq-selectivity ({r['lu_deg']:g}, {r['ed_deg']:g}) {band}"
            _close_db(problems, cell + " LU", r[band]["lu_db"], p_lu)
            _close_db(problems, cell + " ED", r[band]["ed_db"], p_ed)
    return problems


def check_codebook(rx, out, methods):
    cb = json.loads((out / "codebook.json").read_text())
    centers = cb["grid"]["sector_centers_deg"]
    problems = []
    expected = sorted((lu, ed, m) for m in methods for lu in centers for ed in centers if lu != ed)
    if sorted((e["lu_sector"], e["ed_sector"], e["method"]) for e in cb["entries"]) != expected:
        problems.append("codebook is incomplete or holds extra entries")
    for e in cb["entries"]:
        p_lu, p_ed = rx.powers(e["config_bits"], e["lu_sector"], e["ed_sector"])
        cell = f"codebook ({e['lu_sector']:g}, {e['ed_sector']:g}, {e['method']})"
        _close_db(problems, cell + " LU", db(e["achieved"]["p_lu"]), p_lu)
        _close_db(problems, cell + " ED", db(e["achieved"]["p_ed"]), p_ed)
    return problems


def check_query(rx, out, codebook, lu, excluded, method="alg1"):
    """The chosen entry must maximize the minimum raw secrecy rate over the
    admissible eavesdropper sectors, recomputed by direct sum."""
    res = json.loads((out / "codebook_query.json").read_text())
    cb = json.loads(Path(codebook).read_text())
    centers = cb["grid"]["sector_centers_deg"]
    admissible = [c for c in centers if c != lu and c not in excluded]
    n0 = rx.noise_power()
    worst = {}
    for e in cb["entries"]:
        if e["lu_sector"] == lu and e["method"] == method:
            worst[e["config_bits"]] = min(rx.raw_sse(e["config_bits"], lu, ed, n0) for ed in admissible)
    problems = []
    best = max(worst.values())
    if res["config_bits"] not in worst:
        return [f"query ({lu:g}, {excluded}) chose a configuration outside the LU sector's entries"]
    if abs(res["guaranteed_sse"] - best) > TOL_SSE or abs(worst[res["config_bits"]] - best) > TOL_SSE:
        problems.append(
            f"query ({lu:g}, {excluded}): guarantee {res['guaranteed_sse']:.6f}, chosen entry "
            f"{worst[res['config_bits']]:.6f}, direct-sum max-min {best:.6f}"
        )
    return problems


def check_scan(rx, out, bits, angles):
    with open(out / "power_pattern.csv") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))[1:]
    problems = []
    if len(rows) != len(angles) or any(abs(float(r[0]) - a) > 1e-9 for r, a in zip(rows, angles)):
        return [f"pattern-scan reported {len(rows)} angles, expected {len(angles)}"]
    for (angle, power, _), a in zip(rows, angles):
        other = a - 1.0 if a > 0 else a + 1.0
        p_lu, _ = rx.powers(bits, a, other, num_paths=1)
        _close_db(problems, f"pattern-scan {a:g} deg", db(float(power)), p_lu)
    return problems


def check_audit(rx, pairs):
    problems = []
    for p in pairs:
        where = f"audit ({p['lu_deg']:g}, {p['ed_deg']:g})"
        if len(p["greedy"]) != 1:
            problems.append(f"{where}: repeated algorithm1 runs disagree: {p['greedy']}")
        (g_bits, g_val), (o_bits, o_val) = p["greedy"][0], p["oracle"]
        if not o_val >= g_val:
            problems.append(f"{where}: oracle ratio {o_val!r} below greedy {g_val!r}")
        for name, bits, val in (("greedy", g_bits, g_val), ("oracle", o_bits, o_val)):
            p_lu, p_ed = rx.powers(bits, p["lu_deg"], p["ed_deg"])
            _close_db(problems, f"{where} {name} ratio", db(val), p_lu / p_ed)
    return problems


def _same_json(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and (
            a == b or abs(a - b) <= TOL_REF * max(abs(a), abs(b))
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def matches_reference(path, ref):
    """CSV files must be identical; JSON files equal up to TOL_REF in floats."""
    if path.suffix == ".json":
        return _same_json(json.loads(path.read_text()), json.loads(ref.read_text()))
    return path.read_bytes() == ref.read_bytes()
