import json
import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import dense_receive
from ris_pls.channel import ChannelParams, Placement, SectorGrid, _memo_panel_link
from ris_pls.codebook import (
    Codebook,
    CodebookEntry,
    EdKnowledge,
    detect_side_lobes,
    generate_codebook,
    rescore_config,
    scan_power_pattern,
    select_config,
)
from ris_pls.optimize import uniform_config
from ris_pls.ris import ElementModel, RisArrayGeometry, RisConfig
from ris_pls.scenario import Scenario
from ris_pls.secrecy import LinkPowers, SecrecyReport


LORENTZIAN = ElementModel(mode="lorentzian", resonance_hz=3.551e9, quality_factor=30.0)


def scenario_8x8(seed=1, **channel_kwargs):
    params = dict(rician_k_db=10.0, rng_seed=seed)
    params.update(channel_kwargs)
    return Scenario(
        ris=RisArrayGeometry(n_v=8, n_h=8, tile_rows=4, tile_cols=4),
        channel=ChannelParams(**params),
    )


def los_scenario(seed=1, n=8):
    return Scenario(
        ris=RisArrayGeometry(n_v=n, n_h=n, tile_rows=n // 2, tile_cols=n // 2),
        channel=ChannelParams(num_paths=1, rng_seed=seed),
    )


@pytest.fixture(scope="module")
def alg1_codebook():
    sc = scenario_8x8()
    return sc, generate_codebook(sc, methods=("alg1",))


class TestGeneration:
    def test_single_method_entry_count(self, alg1_codebook):
        _, cb = alg1_codebook
        assert len(cb.entries) == 12  # 4 * 3 ordered pairs

    def test_all_methods_entry_count(self):
        sc = scenario_8x8(seed=3)
        cb = generate_codebook(sc, methods=("alg1", "alg2", "lu_max", "ed_min"))
        assert len(cb.entries) == 48
        assert cb.is_complete(("alg1", "alg2", "lu_max", "ed_min"))

    def test_reference_pairs_are_covered(self, alg1_codebook):
        _, cb = alg1_codebook
        reference = [
            (0.0, 15.0), (0.0, 30.0), (0.0, 45.0),
            (15.0, 0.0), (15.0, 30.0), (15.0, 45.0),
            (30.0, 0.0), (30.0, 15.0), (30.0, 45.0),
        ]
        for lu, ed in reference:
            assert (lu, ed, "alg1") in cb.entries

    def test_regeneration_is_deterministic(self):
        sc = scenario_8x8(seed=5)
        a = generate_codebook(sc, methods=("alg1",))
        b = generate_codebook(sc, methods=("alg1",))
        assert a.to_dict() == b.to_dict()

    def test_parallel_generation_matches_serial(self):
        sc = scenario_8x8(seed=6)
        a = generate_codebook(sc, methods=("alg1",), jobs=1)
        b = generate_codebook(sc, methods=("alg1",), jobs=4)
        assert a.to_dict() == b.to_dict()

    def test_empty_method_list_rejected(self):
        with pytest.raises(ValueError):
            generate_codebook(scenario_8x8(), methods=())

    def test_single_sector_grid_rejected(self):
        sc = scenario_8x8()
        with pytest.raises(ValueError):
            generate_codebook(sc, grid=SectorGrid(sector_centers_deg=(0.0,)), methods=("alg1",))

    def test_colocated_entry_rejected(self):
        cfg = RisConfig.zeros(2, 2)
        powers = LinkPowers(1.0, 1.0)
        sse = SecrecyReport(1.0, 1.0, 0.0, 0.0, n0=1.0, num_occupied=1)
        with pytest.raises(ValueError):
            CodebookEntry(15.0, 15.0, "alg1", cfg, powers, sse)


class TestSelection:
    def test_known_is_pure_lookup(self, alg1_codebook):
        _, cb = alg1_codebook
        entry, guaranteed = select_config(cb, 0.0, EdKnowledge.known(15.0))
        assert entry.key == (0.0, 15.0, "alg1")
        assert guaranteed == entry.sse.r_sec_raw

    def test_unknown_two_sector_degenerates_to_single_entry(self):
        sc = Scenario(
            ris=RisArrayGeometry(n_v=4, n_h=4, tile_rows=2, tile_cols=2),
            sector_grid=SectorGrid(sector_centers_deg=(0.0, 15.0)),
            channel=ChannelParams(rng_seed=2),
        )
        cb = generate_codebook(sc, methods=("alg1",))
        entry, guaranteed = select_config(cb, 0.0, EdKnowledge.unknown(), scenario=sc)
        assert entry.key == (0.0, 15.0, "alg1")
        assert guaranteed == pytest.approx(
            rescore_config(sc, entry.config, 0.0, 15.0), rel=1e-12
        )

    def test_unknown_matches_exhaustive_rescoring(self, alg1_codebook):
        sc, cb = alg1_codebook
        for lu in cb.grid.sector_centers_deg:
            entry, guaranteed = select_config(cb, lu, EdKnowledge.unknown(), scenario=sc)
            # Brute-force oracle: re-score every candidate against every
            # admissible eavesdropper sector.
            table = {}
            for cand in cb.entries_for_lu(lu, "alg1"):
                scores = [
                    rescore_config(sc, cand.config, lu, ed)
                    for ed in cb.grid.sector_centers_deg
                    if ed != lu
                ]
                table[cand.key] = min(scores)
            best_key = max(table, key=lambda k: table[k])
            assert guaranteed == pytest.approx(table[best_key], rel=1e-12)
            assert table[entry.key] == pytest.approx(table[best_key], rel=1e-12)

    @pytest.mark.parametrize(
        "knowledge", [EdKnowledge.unknown(), EdKnowledge.excluded_region([15.0, 45.0])]
    )
    def test_grouped_rescoring_equals_per_call_max_min(self, alg1_codebook, knowledge):
        sc, cb = alg1_codebook
        centers = cb.grid.sector_centers_deg
        for lu in centers:
            admissible = [c for c in centers if c != lu and c not in knowledge.excluded]
            best_entry, best = None, -math.inf
            for cand in cb.entries_for_lu(lu, "alg1"):
                guarantee = min(rescore_config(sc, cand.config, lu, ed) for ed in admissible)
                if guarantee > best:
                    best_entry, best = cand, guarantee
            entry, guaranteed = select_config(cb, lu, knowledge, scenario=sc)
            assert entry.key == best_entry.key
            assert guaranteed == best

    def test_excluded_region_restricts_min(self, alg1_codebook):
        sc, cb = alg1_codebook
        entry_all, g_all = select_config(cb, 0.0, EdKnowledge.unknown(), scenario=sc)
        entry_ex, g_ex = select_config(
            cb, 0.0, EdKnowledge.excluded_region([15.0]), scenario=sc
        )
        # Dropping a candidate sector can only raise the guarantee of the
        # entry chosen under full uncertainty.
        assert g_ex >= g_all - 1e-12

    def test_excluding_everything_rejected(self, alg1_codebook):
        sc, cb = alg1_codebook
        with pytest.raises(ValueError):
            select_config(
                cb, 0.0, EdKnowledge.excluded_region([15.0, 30.0, 45.0]), scenario=sc
            )

    def test_unknown_without_scenario_rejected(self, alg1_codebook):
        _, cb = alg1_codebook
        with pytest.raises(ValueError):
            select_config(cb, 0.0, EdKnowledge.unknown())

    def test_foreign_lu_sector_rejected(self, alg1_codebook):
        sc, cb = alg1_codebook
        with pytest.raises(ValueError):
            select_config(cb, 7.5, EdKnowledge.unknown(), scenario=sc)

    def test_digest_mismatch_warns(self, alg1_codebook):
        sc, cb = alg1_codebook
        other = sc.with_seed(sc.seed + 1)
        with pytest.warns(UserWarning, match="digest"):
            select_config(cb, 0.0, EdKnowledge.unknown(), scenario=other)


class TestSerialization:
    def test_dict_round_trip(self, alg1_codebook):
        _, cb = alg1_codebook
        back = Codebook.from_dict(cb.to_dict())
        assert back.to_dict() == cb.to_dict()

    def test_file_round_trip(self, tmp_path, alg1_codebook):
        _, cb = alg1_codebook
        path = tmp_path / "cb.json"
        path.write_text(json.dumps(cb.to_dict()) + "\n")
        assert Codebook.load(path).to_dict() == cb.to_dict()

    def test_pattern_survives_round_trip(self, alg1_codebook):
        _, cb = alg1_codebook
        key = (0.0, 15.0, "alg1")
        entry = cb.entries[key]
        entry.power_pattern = [(-10.0, 1e-9), (0.0, 2e-9)]
        back = Codebook.from_dict(cb.to_dict())
        assert back.entries[key].power_pattern == entry.power_pattern
        entry.power_pattern = None


class TestPatternScan:
    def test_uniform_peak_at_specular_direction(self):
        sc = los_scenario(n=16)
        angles = np.arange(-90.0, 90.5, 0.5)
        pattern = scan_power_pattern(sc, uniform_config(16, 16), angles)
        powers = np.array([p for _, p in pattern])
        peak_angle = pattern[int(np.argmax(powers))][0]
        # transmitter at -15 degrees reflects specularly to +15 degrees
        assert abs(peak_angle - 15.0) <= 0.5

    def test_pattern_nonnegative_and_finite(self):
        sc = los_scenario()
        pattern = scan_power_pattern(sc, uniform_config(8, 8), [-30.0, 0.0, 30.0])
        for _, p in pattern:
            assert p >= 0.0 and math.isfinite(p)

    def test_optimized_entry_favors_lu_over_ed_angle(self):
        sc = los_scenario(seed=4)
        cb = generate_codebook(sc, methods=("alg1",))
        entry = cb.get(30.0, 15.0, "alg1")
        pattern = dict(scan_power_pattern(sc, entry.config, [15.0, 30.0]))
        assert pattern[30.0] > pattern[15.0]

    def test_probe_matches_channel_draw_in_los(self):
        # In a single-ray scenario the probe and the generated user see the
        # same deterministic channel, so the pattern at the serving angle
        # equals the achieved power.
        sc = los_scenario(seed=9)
        cb = generate_codebook(sc, methods=("alg1",))
        entry = cb.get(30.0, 15.0, "alg1")
        pattern = dict(scan_power_pattern(sc, entry.config, [30.0]))
        assert pattern[30.0] == pytest.approx(entry.achieved.p_lu, rel=1e-12)

    @pytest.mark.parametrize("full_scenario", [False, True])
    @pytest.mark.parametrize("model", [ElementModel(), LORENTZIAN], ids=["ideal", "lorentzian"])
    @pytest.mark.parametrize("tx_mode", ["tone", "prs"])
    def test_probe_powers_match_dense_sum(self, tx_mode, model, full_scenario):
        # The probe's power against the dense direct sum over a channel set
        # that holds the probe and a distinct second receiver.
        sc = replace(scenario_8x8(seed=6), tx_mode=tx_mode, num_rb=2, element_model=model)
        config = RisConfig(np.random.default_rng(2).integers(0, 2, 64), 8, 8)
        angles = [-90.0, -41.5, 0.0, 15.0, 63.0, 90.0]
        pattern = scan_power_pattern(sc, config, angles, full_scenario=full_scenario)
        probe_sc = sc if full_scenario else replace(sc, channel=replace(sc.channel, num_paths=1))
        sig = probe_sc.tx_signal()
        assert [a for a, _ in pattern] == angles
        for angle, power in pattern:
            other = Placement(angle - 1.0 if angle > 0 else angle + 1.0, 7.0)
            channels = probe_sc.channels_for(Placement(angle, 7.0), other, sig.freqs)
            y_lu, _ = dense_receive(channels, model, config, sig)
            dense = float((np.abs(y_lu[sig.occupied_mask]) ** 2).sum())
            assert power == pytest.approx(dense, rel=1e-11, abs=0)

    @pytest.mark.parametrize("full_scenario", [False, True])
    def test_scan_leaves_panel_link_memo_unchanged(self, full_scenario):
        sc = replace(scenario_8x8(seed=6), tx_mode="prs", num_rb=2)
        sc.channels_for(sc.placement(0.0), sc.placement(15.0))  # the memo holds links
        before = _memo_panel_link.cache_info()
        scan_power_pattern(sc, uniform_config(8, 8), [-30.0, 0.0, 15.0], full_scenario=full_scenario)
        assert _memo_panel_link.cache_info() == before

    def test_angles_validated(self):
        sc = los_scenario()
        with pytest.raises(ValueError):
            scan_power_pattern(sc, uniform_config(8, 8), [])
        with pytest.raises(ValueError):
            scan_power_pattern(sc, uniform_config(8, 8), [120.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "range_m, message", [(1e200, "non-finite"), (1e-200, "too close to the panel")]
    )
    def test_probe_range_beyond_the_model_rejected(self, range_m, message):
        # The probe's distance overflows to inf, or underflows to 0.
        with pytest.raises(ValueError, match=message):
            scan_power_pattern(los_scenario(), uniform_config(8, 8), [0.0], range_m=range_m)


class TestSideLobes:
    def test_flat_pattern_flags_every_distant_angle(self):
        pattern = [(a, 1.0) for a in np.arange(-90, 91, 5.0)]
        hits = detect_side_lobes(pattern, 0.0, threshold_db=0.0)
        expected = [a for a, _ in pattern if abs(a) >= 30.0]
        assert hits == expected

    def test_dominant_peak_yields_no_lobes(self):
        angles = np.arange(-90, 91, 5.0)
        pattern = [(a, 1.0 if a == 0.0 else 0.2) for a in angles]  # others ~7 dB down
        assert detect_side_lobes(pattern, 0.0, threshold_db=3.0) == []

    def test_one_bit_quantization_lobe_on_large_panel(self):
        # The binary phase alphabet makes the scattered pattern symmetric
        # about the specular direction, so serving 0 degrees raises an image
        # lobe near +31 degrees at the serving power.
        sc = los_scenario(seed=2, n=32)
        cb = generate_codebook(sc, methods=("alg1",))
        entry = cb.get(0.0, 30.0, "alg1")
        angles = np.arange(-90.0, 90.5, 0.5)
        pattern = scan_power_pattern(sc, entry.config, angles)
        lobes = detect_side_lobes(pattern, 0.0, threshold_db=10.0)
        assert lobes, "expected at least one side lobe within 10 dB"
        print("side lobes within 10 dB of the serving power at:", lobes)

    def test_serving_angle_must_be_covered(self):
        pattern = [(a, 1.0) for a in np.arange(-10, 11, 1.0)]
        with pytest.raises(ValueError):
            detect_side_lobes(pattern, 50.0, threshold_db=0.0)
