"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from helpers import codebook_keys, model_instance, panel, replay, rescore, single_flip_improvements
from ris_pls.channel import ChannelParams, ChannelSet
from ris_pls.codebook import (
    Codebook,
    EdKnowledge,
    generate_codebook,
    run_method,
    select_config,
)
from ris_pls.ofdm import Numerology, TxSignal, build_prs_grid, prs_signal, tone_signal
from ris_pls.optimize import (
    EvaluatorBatch,
    algorithm1,
    algorithm2,
    channel_powers,
    ed_min,
    exhaustive_oracle,
    lu_max,
    received_signal,
)
from ris_pls.ris import ElementModel, RisArrayGeometry
from ris_pls.scenario import Scenario
from ris_pls.secrecy import link_powers, sum_sse
from ris_pls.experiments import DEFAULT_PAIRS

CARRIER = 3.55e9
METHODS = ("alg1", "alg2", "lu_max", "ed_min", "uniform")


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:02d}] {verdict}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_receive_matches_direct_summation_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 17))
        m = int(rng.integers(1, 9))

        def c(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        h_d_lu, h_d_ed = c(k), c(k)
        h_lu, h_ed, g, phi, x = c(k, m), c(k, m), c(k, m), c(k, 2), c(k)
        bits = rng.integers(0, 2, m)
        for h_d, h in ((h_d_lu, h_lu), (h_d_ed, h_ed)):
            w = h * g
            y = received_signal(h_d, phi, w.sum(axis=1), w @ bits.astype(float), x)
            for v in range(k):
                expected = h_d[v]
                for i in range(m):
                    expected += h[v, i] * phi[v, bits[i]] * g[v, i]
                expected *= x[v]
                worst = max(worst, abs(y[v] - expected) / abs(expected))
    elapsed = time.time() - start
    report(
        1,
        worst <= 1e-12 and elapsed < 10.0,
        f"1000 instances, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_sse_closed_forms():
    def flat_channels(amp_lu, amp_ed):
        return ChannelSet(
            freqs=np.array([CARRIER]),
            h_d_lu=np.array([amp_lu], complex),
            h_d_ed=np.array([amp_ed], complex),
            h_ris_lu=np.zeros((1, 1), complex),
            h_ris_ed=np.zeros((1, 1), complex),
            g_ris=np.zeros((1, 1), complex),
        )

    tx = TxSignal(
        mode="tone",
        freqs=np.array([CARRIER]),
        symbols=np.array([1.0 + 0.0j]),
    )
    bits = np.zeros(1, dtype=np.uint8)
    snr31 = sum_sse(EvaluatorBatch([flat_channels(math.sqrt(3.0), 1.0)], ElementModel(), tx).powers(bits)[0], n0=1.0)
    identical = sum_sse(EvaluatorBatch([flat_channels(0.8, 0.8)], ElementModel(), tx).powers(bits)[0], n0=1.0)
    ok = (
        abs(snr31.r_sec_raw - 1.0) <= 1e-12
        and identical.r_sec == 0.0
        and abs(identical.r_sec_raw) <= 1e-12
    )
    report(
        2,
        ok,
        f"SNR(3,1) raw SSE {snr31.r_sec_raw!r}, identical-channel clamped SSE {identical.r_sec!r}",
    )


def test_criterion_03_bandwidth_arithmetic():
    grid = build_prs_grid(Numerology(mu=2), num_rb=52, seed=0)
    ok = (
        grid.num_subcarriers == 624
        and int(grid.occupied_mask.sum()) == 312
        and grid.bandwidth_hz == 37_440_000.0
    )
    report(
        3,
        ok,
        f"{grid.num_subcarriers} subcarriers, {int(grid.occupied_mask.sum())} occupied, "
        f"bandwidth {grid.bandwidth_hz/1e6:.2f} MHz",
    )


def test_criterion_04_greedy_invariants():
    start = time.time()
    geom = panel(4, 4)
    model = ElementModel()
    methods = {"alg1": algorithm1, "alg2": algorithm2, "lu_max": lu_max, "ed_min": ed_min}
    locally_optimal = 0
    for seed in range(200):
        channels, sig = model_instance(seed, 4, 4)
        for name, method in methods.items():
            trace = method(channels, model, sig, geom)
            registers = {}
            for step in trace.steps:
                improved = (
                    step.objective_after > step.objective_before
                    if step.direction == "max"
                    else step.objective_after < step.objective_before
                )
                assert step.accepted == improved, f"{name} seed {seed}: accept rule violated"
                if step.accepted:
                    prev = registers.get(step.objective)
                    if prev is not None:
                        assert (
                            step.objective_after > prev
                            if step.direction == "max"
                            else step.objective_after < prev
                        ), f"{name} seed {seed}: accepted objective not strictly monotone"
                    registers[step.objective] = step.objective_after
            assert replay(trace) == trace.final_config, (
                f"{name} seed {seed}: rejected step leaked into the configuration"
            )
            if name == "alg1":
                if not single_flip_improvements(channels, model, sig, trace.final_config, "ratio"):
                    locally_optimal += 1
    elapsed = time.time() - start
    report(
        4,
        locally_optimal == 200 and elapsed < 60.0,
        f"200 instances x 4 methods monotone and revert-correct; "
        f"alg1 single-flip locally optimal in {locally_optimal}/200 runs; {elapsed:.1f}s",
    )


def test_criterion_05_oracle_dominance():
    geom = panel(3, 4)
    model = ElementModel()
    gaps = []
    dominated = True
    for seed in range(50):
        channels, sig = model_instance(seed, 3, 4)
        _, best = exhaustive_oracle(channels, model, sig, "ratio", geom)
        greedy = algorithm1(channels, model, sig, geom).final_objective
        dominated &= best >= greedy
        gaps.append(greedy / best)
    report(
        5,
        dominated,
        f"oracle >= greedy on 50/50 instances; mean greedy/optimal ratio "
        f"{np.mean(gaps):.4f} (min {np.min(gaps):.4f}) [informational]",
    )


@pytest.fixture(scope="module")
def reference_sweep():
    """10-seed, 9-pair, 5-method sweep on the default 32x32 panel.

    The reference SNR is set to 20 dB: at the rig-like operating point the
    secrecy rates of both links stay sensitive to the eavesdropper's power,
    which the default 10 dB point does not resolve (both algorithms push
    the eavesdropper far below the noise floor there).
    """
    start = time.time()
    powers = {}
    sse = {}
    for seed in range(10):
        scenario = Scenario(
            channel=ChannelParams(rician_k_db=10.0, rng_seed=seed),
            target_snr_db=20.0,
        )
        sig = scenario.tx_signal()
        n0 = scenario.noise_power()
        for pair in DEFAULT_PAIRS:
            channels = scenario.channels_for(scenario.placement(pair[0]), scenario.placement(pair[1]), sig.freqs)
            batch = EvaluatorBatch([channels], scenario.element_model, sig)
            for method in METHODS:
                (config,), _ = run_method(method, scenario, batch)
                (p_bins,) = batch.powers(config.bits)
                p = link_powers(p_bins)
                powers[(seed, pair, method)] = (p.p_lu, p.p_ed)
                sse[(seed, pair, method)] = sum_sse(p_bins, n0).r_sec_raw
    return powers, sse, time.time() - start


def test_criterion_06_qualitative_power_orderings(reference_sweep):
    powers, _, elapsed = reference_sweep
    seeds_alg_ok = 0
    seeds_uniform_fails = 0
    for seed in range(10):
        alg_ok = all(
            powers[(seed, pair, method)][0] > powers[(seed, pair, method)][1]
            for pair in DEFAULT_PAIRS
            for method in ("alg1", "alg2")
        )
        uniform_fails = any(
            powers[(seed, pair, "uniform")][0] <= powers[(seed, pair, "uniform")][1]
            for pair in DEFAULT_PAIRS
        )
        seeds_alg_ok += alg_ok
        seeds_uniform_fails += uniform_fails
    ok = seeds_alg_ok >= 8 and seeds_uniform_fails >= 8 and elapsed < 600.0
    report(
        6,
        ok,
        f"alg1+alg2 LU>ED on all 9 pairs in {seeds_alg_ok}/10 seeds; uniform surface "
        f"fails the ordering somewhere in {seeds_uniform_fails}/10 seeds; sweep {elapsed:.0f}s",
    )


def test_criterion_07_method_ranking(reference_sweep):
    powers, sse, _ = reference_sweep
    lu_max_best = 0
    for pair in DEFAULT_PAIRS:
        mean_lu = {
            method: np.mean([powers[(seed, pair, method)][0] for seed in range(10)])
            for method in METHODS
        }
        if mean_lu["lu_max"] >= max(mean_lu.values()):
            lu_max_best += 1
    mean_alg1 = np.mean([sse[(s, p, "alg1")] for s in range(10) for p in DEFAULT_PAIRS])
    mean_alg2 = np.mean([sse[(s, p, "alg2")] for s in range(10) for p in DEFAULT_PAIRS])
    ok = lu_max_best >= 7 and mean_alg1 >= mean_alg2
    report(
        7,
        ok,
        f"lu_max highest LU power for {lu_max_best}/9 pairs; mean raw SSE "
        f"alg1 {mean_alg1:.3f} vs alg2 {mean_alg2:.3f}",
    )


def test_criterion_08_frequency_selectivity():
    slope = 1e-7  # rad/Hz; 107 degrees of rotation at the band edge
    rotation_deg = math.degrees(slope * 18.72e6)
    assert rotation_deg >= 60.0
    results = {}
    for mode, model in (
        ("ideal", ElementModel()),
        ("dispersive", ElementModel(mode="linear_dispersion", dispersion_rad_per_hz=slope)),
    ):
        scenario = Scenario(
            channel=ChannelParams(
                num_paths=1, direct_path_suppression_db=150.0, rng_seed=1
            ),
            element_model=model,
        )
        tone = tone_signal(scenario.numerology, CARRIER, scenario.tone_offset_hz)
        grid = build_prs_grid(scenario.numerology, num_rb=52, seed=scenario.seed, center_freq_hz=CARRIER)
        wide = prs_signal(grid)
        rows = []
        for pair in DEFAULT_PAIRS:
            lu, ed = scenario.placement(pair[0]), scenario.placement(pair[1])
            nb = EvaluatorBatch([scenario.channels_for(lu, ed, tone.freqs)], scenario.element_model, tone)
            (config,), _ = run_method("alg1", scenario, nb)
            nb = link_powers(nb.powers(config.bits)[0])
            wb = link_powers(channel_powers(scenario.channels_for(lu, ed, wide.freqs), model, wide, config.bits))
            rows.append((nb.lu_db - nb.ed_db, wb.lu_db - wb.ed_db))
        results[mode] = rows
    ideal_worst = max(abs(nb - wb) for nb, wb in results["ideal"])
    min_shrink = min(nb - wb for nb, wb in results["dispersive"])
    ok = ideal_worst <= 0.2 and min_shrink > 0.0
    report(
        8,
        ok,
        f"element phase rotation {rotation_deg:.0f} deg at band edge; ideal-model gap "
        f"agreement within {ideal_worst:.3f} dB; dispersive wideband gap smaller on all "
        f"9 pairs (min shrink {min_shrink:.3f} dB)",
    )


def test_criterion_09_codebook_completeness_and_selection():
    scenario = Scenario(
        ris=RisArrayGeometry(n_v=8, n_h=8, tile_rows=4, tile_cols=4),
        channel=ChannelParams(rician_k_db=10.0, rng_seed=4),
    )
    methods = ("alg1", "alg2", "lu_max", "ed_min")
    cb = generate_codebook(scenario, methods=methods)
    count_ok = len(cb.entries) == 48 and set(cb.entries) == codebook_keys(cb, methods)

    selection_ok = True
    for lu in cb.grid.sector_centers_deg:
        entry, guaranteed = select_config(cb, lu, EdKnowledge.unknown(), scenario=scenario)
        table = {}
        for cand in cb.entries_for_lu(lu, "alg1"):
            scores = [
                rescore(scenario, cand.config, lu, ed)
                for ed in cb.grid.sector_centers_deg
                if ed != lu
            ]
            table[cand.key] = min(scores)
        best = max(table.values())
        selection_ok &= abs(guaranteed - best) <= 1e-12 * max(1.0, abs(best))
        selection_ok &= abs(table[entry.key] - best) <= 1e-12 * max(1.0, abs(best))

    round_trip_ok = Codebook.from_dict(cb.to_dict()).to_dict() == cb.to_dict()
    ok = count_ok and selection_ok and round_trip_ok
    report(
        9,
        ok,
        f"48 entries complete={count_ok}; max-min selection matches exhaustive "
        f"re-scoring on every sector={selection_ok}; serialization lossless={round_trip_ok}",
    )
