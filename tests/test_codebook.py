import gc
import json
import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from helpers import codebook_keys, dense_receive, rescore
from ris_pls import channel, codebook, optimize
from ris_pls.channel import (
    _LINK_RIS_NODE,
    _LINK_TX_RIS,
    ChannelParams,
    Placement,
    SectorGrid,
    _direct_link,
    _panel_link,
    _tx_beam,
)
from ris_pls.cli import EXIT_OK, main
from ris_pls.codebook import (
    SWEEP_BATCH_BYTES,
    Codebook,
    CodebookEntry,
    EdKnowledge,
    detect_side_lobes,
    generate_codebook,
    pair_batches,
    scan_power_pattern,
    select_config,
    sweep_pairs,
)
from ris_pls.experiments import ExperimentSpec, _csv_text, _fmt_db, run_compare
from ris_pls.optimize import EvaluatorBatch, channel_powers, received_signal, reflection_coefficients
from ris_pls.ris import ElementModel, RisArrayGeometry, RisConfig
from ris_pls.scenario import Scenario
from ris_pls.secrecy import LinkPowers, SecrecyReport, sum_sse, to_db


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
        assert set(cb.entries) == codebook_keys(cb, ("alg1", "alg2", "lu_max", "ed_min"))

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

    def test_generation_does_not_depend_on_batch_size(self, monkeypatch):
        # One batch of all 12 pairs against one pair a batch.
        sc = scenario_8x8(seed=6)
        a = generate_codebook(sc, methods=("alg1",))
        monkeypatch.setattr(codebook, "SWEEP_BATCH_BYTES", 1)
        b = generate_codebook(sc, methods=("alg1",))
        assert a.to_dict() == b.to_dict()

    def test_empty_method_list_rejected(self):
        with pytest.raises(ValueError):
            generate_codebook(scenario_8x8(), methods=())

    def test_single_sector_grid_rejected(self):
        sc = replace(scenario_8x8(), sector_grid=SectorGrid(sector_centers_deg=(0.0,)))
        with pytest.raises(ValueError, match="at least two sectors"):
            generate_codebook(sc, methods=("alg1",))

    def test_colocated_entry_rejected(self):
        cfg = RisConfig.zeros(2, 2)
        powers = LinkPowers(1.0, 1.0)
        sse = SecrecyReport(1.0, 1.0, 0.0, 0.0, n0=1.0, num_occupied=1)
        with pytest.raises(ValueError):
            CodebookEntry(15.0, 15.0, "alg1", cfg, powers, sse)


def record_batches(monkeypatch) -> list:
    """The number of rows of every lockstep sweep run from now on."""
    sizes = []
    sweep = optimize._sweep

    def recording(evs, *args, **kwargs):
        sizes.append(len(evs))
        return sweep(evs, *args, **kwargs)

    monkeypatch.setattr(optimize, "_sweep", recording)
    return sizes


class TestSweepBatches:
    METHODS = ("alg1", "alg2", "lu_max", "ed_min")

    def test_tone_codebook_is_one_batch_per_method(self, monkeypatch):
        # 11 sectors: 110 ordered pairs of 32 KB of 32x32 tone cascades.
        grid = SectorGrid(sector_centers_deg=tuple(float(a) for a in range(-75, 76, 15)))
        sc = Scenario(sector_grid=grid)
        sizes = record_batches(monkeypatch)
        cb = generate_codebook(sc, methods=self.METHODS)
        assert sizes == [110] * 4
        assert set(cb.entries) == codebook_keys(cb, self.METHODS)

    @pytest.mark.parametrize("budget", [SWEEP_BATCH_BYTES, 1], ids=["one-batch", "pair-a-batch"])
    def test_generation_computes_each_direct_link_once(self, monkeypatch, budget):
        # The noise calibration's LU stands at a sector center, so 12 pairs
        # under 2 methods need one direct link per sector, however the
        # pairs are cut into batches.
        monkeypatch.setattr(codebook, "SWEEP_BATCH_BYTES", budget)
        sc = scenario_8x8(seed=3)
        nodes = []
        direct_link = channel._direct_link

        def counting_direct_link(tx, node, *args):
            nodes.append(node)
            return direct_link(tx, node, *args)

        monkeypatch.setattr(channel, "_direct_link", counting_direct_link)
        generate_codebook(sc, methods=("alg1", "ed_min"))
        assert sorted(node.azimuth_deg for node in nodes) == list(sc.sector_grid.sector_centers_deg)

    def test_channel_sets_are_taken_as_batches_start(self, monkeypatch):
        # One pair a batch over 12 distinct azimuths: when a set is taken,
        # the only set alive is at most the last one taken, and the table
        # holds no link.
        monkeypatch.setattr(codebook, "SWEEP_BATCH_BYTES", 1)
        sc = scenario_8x8(seed=4)
        angles = [-75.0 + 12.5 * i for i in range(12)]
        pairs = [(sc.placement(lu), sc.placement(ed)) for lu, ed in zip(angles[::2], angles[1::2])]
        refs, alive, held = [], [], []
        channels = channel.LinkTable.channels

        def tracking(self, lu, ed):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            held.append(len(self._receivers))
            out = channels(self, lu, ed)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(channel.LinkTable, "channels", tracking)
        cells = sweep_pairs(sc, sc.tx_signal(), pairs, ("alg1",), lambda pair, *cell: pair)
        assert cells == pairs
        assert len(alive) == 6 and max(alive) <= 1
        assert held == [0] * 6 and sc.link_table()._receivers == {}

    def test_first_failing_batch_raises_first(self, monkeypatch):
        # The first batch's sweep fails, and so would the second's links.
        monkeypatch.setattr(codebook, "SWEEP_BATCH_BYTES", 1)
        sc = scenario_8x8(seed=4)
        pairs = [(sc.placement(0.0), sc.placement(15.0)), (sc.placement(30.0), sc.placement(45.0))]
        direct_link = channel._direct_link

        def failing_sweep(*args):
            raise RuntimeError("the first batch's sweep")

        def failing_link(tx, node, *args):
            if node.azimuth_deg == 30.0:
                raise ValueError("the second batch's links")
            return direct_link(tx, node, *args)

        monkeypatch.setattr(codebook, "run_method", failing_sweep)
        monkeypatch.setattr(channel, "_direct_link", failing_link)
        with pytest.raises(RuntimeError, match="first batch"):
            sweep_pairs(sc, sc.tx_signal(), pairs, ("alg1",), lambda *cell: cell)

    def test_batches_are_cut_by_sweep_batch_bytes(self, monkeypatch):
        # A 32x32 tone pair stacks 32 KB of cascades: 110 pairs fit 8 MiB,
        # and a budget of 40 pairs cuts them into 40, 40 and 30 in order.
        sc = Scenario()
        pairs = [(lu, ed) for lu in range(11) for ed in range(10)]
        assert [len(b) for b in pair_batches(sc, sc.tx_signal(), pairs)] == [110]
        monkeypatch.setattr(codebook, "SWEEP_BATCH_BYTES", 40 * 32 * 2**10 + 1)
        batches = pair_batches(sc, sc.tx_signal(), pairs)
        assert [len(b) for b in batches] == [40, 40, 30]
        assert [b for batch in batches for b in batch] == pairs

    def test_wideband_pair_runs_alone(self, monkeypatch, tmp_path):
        # A 32x32 pair on a 52-block comb grid holds 10 MB of cascades.
        sc = Scenario(tx_mode="prs")
        assert 32 * 32 * 2 * sc.tx_signal().num_subcarriers * 16 > SWEEP_BATCH_BYTES
        sizes = record_batches(monkeypatch)
        spec = ExperimentSpec("compare_methods", out_dir=str(tmp_path), pairs=((0.0, 15.0), (30.0, 0.0)), methods=("alg1",))
        run_compare(sc, spec)
        assert sizes == [1, 1]


def track_trace_batches(monkeypatch) -> list:
    """Weak references to the `TraceBatch` of every method run from now
    on; each run first checks that the earlier ones are gone."""
    refs = []
    run_method = codebook.run_method

    def tracking(*args, **kwargs):
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs), "an earlier method's traces are still held"
        configs, traces = run_method(*args, **kwargs)
        if isinstance(traces, optimize.TraceBatch):
            refs.append(weakref.ref(traces))
        return configs, traces

    monkeypatch.setattr(codebook, "run_method", tracking)
    return refs


class TestSweepPairs:
    METHODS = ("alg1", "alg2", "lu_max", "ed_min")

    def test_cells_pair_by_pair_and_method_by_method(self, monkeypatch):
        # Batches of two 8x8 tone pairs (2 KB each): the cells of both
        # batches come back in pair order.
        monkeypatch.setattr(codebook, "SWEEP_BATCH_BYTES", 2 * 2**11)
        sc = scenario_8x8(seed=2)
        pairs = [(sc.placement(lu), sc.placement(ed)) for lu, ed in ((0.0, 15.0), (30.0, 0.0), (45.0, 15.0))]
        methods = (*self.METHODS, "uniform")
        assert [len(b) for b in pair_batches(sc, sc.tx_signal(), pairs)] == [2, 1]

        def keep(pair, method, config, trace, powers):
            return pair, method, config.to_bitstring(), powers

        cells = sweep_pairs(sc, sc.tx_signal(), pairs, methods, keep)
        assert [(pair, method) for pair, method, _, _ in cells] == [(p, m) for p in pairs for m in methods]
        for pair, method, bits, powers in cells:
            alone = EvaluatorBatch([sc.channels_for(*pair)], sc.element_model, sc.tx_signal())
            assert np.array_equal(powers, alone.powers(RisConfig.from_bitstring(bits, 8, 8).bits)[0])

    def test_codebook_releases_each_methods_traces(self, monkeypatch):
        refs = track_trace_batches(monkeypatch)
        cb = generate_codebook(scenario_8x8(seed=2), methods=self.METHODS)
        assert set(cb.entries) == codebook_keys(cb, self.METHODS)
        assert len(refs) == 4
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4

    def test_compare_releases_each_methods_traces(self, monkeypatch, tmp_path):
        refs = track_trace_batches(monkeypatch)
        spec = ExperimentSpec("compare_methods", out_dir=str(tmp_path), pairs=((0.0, 15.0), (30.0, 0.0)))
        run_compare(scenario_8x8(seed=2), spec)
        assert len(refs) == 4  # uniform has no traces
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4


class TestLazyTraces:
    """Sweeps record their moves in a log; trace steps are built only when
    a trace's steps are read."""

    @pytest.fixture
    def no_trace_steps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a TraceStep was built")

        monkeypatch.setattr(optimize, "TraceStep", refuse)

    def test_generation_builds_no_trace_steps(self, no_trace_steps):
        methods = ("alg1", "alg2", "lu_max", "ed_min")
        sc = scenario_8x8(seed=2)
        cb = generate_codebook(sc, methods=methods)
        assert set(cb.entries) == codebook_keys(cb, methods)
        channels = sc.channels_for(sc.placement(0.0), sc.placement(15.0))
        batch = EvaluatorBatch([channels], sc.element_model, sc.tx_signal())
        trace = optimize.greedy_sweep("alg1", batch, sc.ris)[0]
        with pytest.raises(AssertionError, match="TraceStep"):
            trace.steps

    def test_compare_writes_the_steps_of_every_trace(self, tmp_path):
        spec = ExperimentSpec("compare_methods", out_dir=str(tmp_path), pairs=((0.0, 15.0), (30.0, 0.0)))
        run_compare(scenario_8x8(seed=2), spec)
        results = json.loads((tmp_path / "compare_results.json").read_text())["results"]
        assert all(r["trace"]["steps"] for r in results if r["method"] != "uniform")


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
            rescore(sc, entry.config, 0.0, 15.0), rel=1e-12
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
                    rescore(sc, cand.config, lu, ed)
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
                guarantee = min(rescore(sc, cand.config, lu, ed) for ed in admissible)
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


def per_pair_selection(cb, scenario, lu, knowledge, method="alg1") -> tuple:
    """(entry, guarantee) of the max-min choice with every (candidate,
    sector) re-scored by one `channel_powers` call on its own channel set:
    the reference for the batched re-scoring of `select_config`."""
    tx, n0 = scenario.tx_signal(), scenario.noise_power()
    admissible = [c for c in cb.grid.sector_centers_deg if c != lu and c not in knowledge.excluded]
    candidates = cb.entries_for_lu(lu, method)

    def rate(config, ed):
        channels = scenario.channels_for(scenario.placement(lu), scenario.placement(ed), tx.freqs)
        return sum_sse(channel_powers(channels, scenario.element_model, tx, config.bits), n0).r_sec_raw

    guarantees = [min(rate(cand.config, ed) for ed in admissible) for cand in candidates]
    best = max(range(len(candidates)), key=guarantees.__getitem__)
    return candidates[best], guarantees[best]


def five_sector_scenario(seed, waveform):
    """A 4x4 panel serving five sectors with the tone or a two-block comb grid."""
    return Scenario(
        ris=RisArrayGeometry(n_v=4, n_h=4, tile_rows=2, tile_cols=2),
        sector_grid=SectorGrid(sector_centers_deg=(-15.0, 0.0, 15.0, 30.0, 45.0)),
        channel=ChannelParams(rician_k_db=10.0, rng_seed=seed),
        tx_mode=waveform,
        num_rb=2,
    )


def record_pair_batches(monkeypatch) -> list:
    """The batch sizes of every `pair_batches` call from now on, a list per call."""
    calls = []
    pair_batches = codebook.pair_batches

    def recorded(*args):
        batches = pair_batches(*args)
        calls.append([len(b) for b in batches])
        return batches

    monkeypatch.setattr(codebook, "pair_batches", recorded)
    return calls


class TestBatchedRescoring:
    """`select_config` re-scores the admissible sectors as rows of one
    `EvaluatorBatch` per batch; it chooses as per-pair `channel_powers`
    re-scoring does, and its guarantee equals a batch of one's bit for
    bit, however the sectors are cut into batches."""

    @pytest.mark.parametrize("pairs_per_batch", [None, 3, 1], ids=["one-batch", "three-a-batch", "one-a-batch"])
    @pytest.mark.parametrize("waveform", ["tone", "prs"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_choice_matches_per_pair_reference(self, monkeypatch, seed, waveform, pairs_per_batch):
        sc = five_sector_scenario(seed, waveform)
        cb = generate_codebook(sc, methods=("alg1",))
        if pairs_per_batch is not None:
            pair_bytes = sc.ris.num_elements * 2 * sc.tx_signal().num_subcarriers * np.dtype(complex).itemsize
            monkeypatch.setattr(codebook, "SWEEP_BATCH_BYTES", pairs_per_batch * pair_bytes)
        calls = record_pair_batches(monkeypatch)
        centers = sc.sector_grid.sector_centers_deg
        for knowledge in (EdKnowledge.unknown(), EdKnowledge.excluded_region([30.0])):
            for lu in centers:
                entry, guaranteed = select_config(cb, lu, knowledge, scenario=sc)
                reference, expected = per_pair_selection(cb, sc, lu, knowledge)
                assert entry.key == reference.key
                assert guaranteed == pytest.approx(expected, rel=1e-12, abs=1e-12)
                admissible = [c for c in centers if c != lu and c not in knowledge.excluded]
                assert guaranteed == min(rescore(sc, entry.config, lu, ed) for ed in admissible)
        # Four admissible sectors under full uncertainty.
        assert calls[0] == {None: [4], 3: [3, 1], 1: [1, 1, 1, 1]}[pairs_per_batch]

    @pytest.mark.parametrize("pairs_per_batch", [None, 1], ids=["one-batch", "one-a-batch"])
    def test_first_of_equal_candidates_wins(self, monkeypatch, pairs_per_batch):
        sc = five_sector_scenario(1, "tone")
        cb = generate_codebook(sc, methods=("alg1",))
        if pairs_per_batch is not None:
            monkeypatch.setattr(codebook, "SWEEP_BATCH_BYTES", 1)
        candidates = cb.entries_for_lu(0.0, "alg1")
        best, guaranteed = select_config(cb, 0.0, EdKnowledge.unknown(), scenario=sc)
        assert best is not candidates[-1]
        # The last candidate takes the chosen one's bits: an exact tie.
        candidates[-1].config = best.config.copy()
        assert select_config(cb, 0.0, EdKnowledge.unknown(), scenario=sc) == (best, guaranteed)
        for cand in candidates:
            cand.config = best.config.copy()
        assert select_config(cb, 0.0, EdKnowledge.unknown(), scenario=sc) == (candidates[0], guaranteed)


class TestLoad:
    """A load checks every record and builds an entry when it is read."""

    def test_readers_return_the_entries_written(self, alg1_codebook):
        _, cb = alg1_codebook
        written = dict(cb.entries)
        key = (0.0, 15.0, "alg1")
        written[key] = replace(cb.entries[key], power_pattern=[(-10.0, 1e-9), (0.0, 2e-9)])
        doc = Codebook(cb.grid, cb.scenario_digest, written).to_dict()
        back = Codebook.from_dict(json.loads(json.dumps(doc)))
        assert all(isinstance(record, dict) for record in back.entries.values())
        for lu in cb.grid.sector_centers_deg:
            assert back.entries_for_lu(lu, "alg1") == [written[k] for k in sorted(written) if k[0] == lu]
        assert {k: back.get(*k) for k in written} == written
        assert back.to_dict() == doc

    def test_any_real_number_loads(self, alg1_codebook):
        # An integer sector keys as its float, and a numpy float passes
        # where a JSON float does.
        _, cb = alg1_codebook
        doc = cb.to_dict()
        record = doc["entries"][0]
        key = (record["lu_sector"], record["ed_sector"], record["method"])
        record["lu_sector"], record["sse"]["n0"] = int(record["lu_sector"]), np.float64(record["sse"]["n0"])
        assert Codebook.from_dict(doc).get(*key) == cb.entries[key]

    def test_empty_codebook_loads(self, alg1_codebook):
        _, cb = alg1_codebook
        back = Codebook.from_dict({**cb.to_dict(), "entries": []})
        assert back.entries == {} and back.to_dict()["entries"] == []


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
        assert back.get(*key).power_pattern == entry.power_pattern
        entry.power_pattern = None


class TestPatternScan:
    def test_uniform_peak_at_specular_direction(self):
        sc = los_scenario(n=16)
        angles = np.arange(-90.0, 90.5, 0.5)
        pattern = scan_power_pattern(sc, RisConfig.zeros(16, 16), angles)
        powers = np.array([p for _, p in pattern])
        peak_angle = pattern[int(np.argmax(powers))][0]
        # transmitter at -15 degrees reflects specularly to +15 degrees
        assert abs(peak_angle - 15.0) <= 0.5

    def test_pattern_nonnegative_and_finite(self):
        sc = los_scenario()
        pattern = scan_power_pattern(sc, RisConfig.zeros(8, 8), [-30.0, 0.0, 30.0])
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

    @pytest.mark.parametrize("model", [ElementModel(), LORENTZIAN], ids=["ideal", "lorentzian"])
    @pytest.mark.parametrize("tx_mode", ["tone", "prs"])
    def test_probe_powers_match_dense_sum(self, tx_mode, model):
        # The probe's power against the dense direct sum over a channel set
        # that holds the probe and a distinct second receiver, both seeing
        # only the line-of-sight ray of each link.
        sc = replace(scenario_8x8(seed=6), tx_mode=tx_mode, num_rb=2, element_model=model)
        config = RisConfig(np.random.default_rng(2).integers(0, 2, 64), 8, 8)
        angles = [-90.0, -41.5, 0.0, 15.0, 63.0, 90.0]
        pattern = scan_power_pattern(sc, config, angles)
        probe_sc = replace(sc, channel=replace(sc.channel, num_paths=1))
        sig = probe_sc.tx_signal()
        assert [a for a, _ in pattern] == angles
        for angle, power in pattern:
            other = Placement(angle - 1.0 if angle > 0 else angle + 1.0, 7.0)
            channels = probe_sc.channels_for(Placement(angle, 7.0), other, sig.freqs)
            y_lu, _ = dense_receive(channels, model, config, sig)
            dense = float((np.abs(y_lu) ** 2).sum())
            assert power == pytest.approx(dense, rel=1e-11, abs=0)

    def test_scan_leaves_panel_link_memo_unchanged(self):
        # Probe links are kept nowhere: a scan adds no link table to the
        # scenario, and no placement or link to the tables it has.
        sc = replace(scenario_8x8(seed=6), tx_mode="prs", num_rb=2)
        scan_power_pattern(sc, RisConfig.zeros(8, 8), [-30.0, 0.0, 15.0])
        assert sc._link_tables == {}
        before = sc.channels_for(sc.placement(0.0), sc.placement(15.0))
        tables = dict(sc._link_tables)
        placements = {key: list(table._receivers) for key, table in tables.items()}
        scan_power_pattern(sc, RisConfig.zeros(8, 8), [-30.0, 0.0, 15.0])
        assert sc._link_tables == tables
        assert {key: list(table._receivers) for key, table in tables.items()} == placements
        after = sc.channels_for(sc.placement(0.0), sc.placement(15.0))
        for name in ("h_d_lu", "h_d_ed", "h_ris_lu", "h_ris_ed", "g_ris"):
            assert getattr(after, name) is getattr(before, name)

    def test_angles_validated(self):
        sc = los_scenario()
        with pytest.raises(ValueError):
            scan_power_pattern(sc, RisConfig.zeros(8, 8), [])
        with pytest.raises(ValueError):
            scan_power_pattern(sc, RisConfig.zeros(8, 8), [120.0])

    @pytest.mark.parametrize("angle", [True, "7", None, float("nan"), -90.5])
    def test_angle_types_validated(self, angle):
        with pytest.raises(ValueError, match="scan angles must be numbers in \\[-90, 90\\] degrees"):
            scan_power_pattern(los_scenario(), RisConfig.zeros(8, 8), [0.0, angle])

    @pytest.mark.parametrize(
        "range_m, message",
        [
            (0, "range must be positive"),
            (-1.0, "range must be positive"),
            (float("nan"), "range_m must be a finite number, not nan"),
            (float("inf"), "range_m must be a finite number, not inf"),
            (True, "range_m must be a finite number, not True"),
            ("7", "range_m must be a finite number, not '7'"),
        ],
    )
    def test_range_checks(self, range_m, message):
        # The checks of a placement at that range, before any probe's link.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scan_power_pattern(los_scenario(), RisConfig.zeros(8, 8), [0.0, 10.0], range_m=range_m)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "range_m, message",
        [
            (1e200, "the probe at 12.5 degrees receives a non-finite signal"),
            (1e-200, "node at 1e-200 m is too close to the panel"),
        ],
    )
    @pytest.mark.parametrize("per_chunk", [None, 1, 3])
    def test_probe_range_beyond_the_model_rejected(self, monkeypatch, range_m, message, per_chunk):
        # The probe's distance overflows to inf, or underflows to 0, at
        # every angle; the error names the first, in one chunk or many.
        sc = los_scenario()
        set_chunk_probes(monkeypatch, sc, per_chunk)
        angles = [12.5 + i for i in range(10)]
        with pytest.raises(ValueError, match=message):
            scan_power_pattern(sc, RisConfig.zeros(8, 8), angles, range_m=range_m)

    def test_probe_at_the_transmitter_rejected_after_the_probes_before_it(self, monkeypatch):
        # The transmitter stands at -15 degrees, 5 m: the fifth probe of a
        # chunk of three, after a chunk whose signals are scored.
        sc = los_scenario()
        set_chunk_probes(monkeypatch, sc, 3)
        scored = []

        def counting(*args):
            y = received_signal(*args)
            scored.append(y.size)
            return y

        monkeypatch.setattr(codebook, "received_signal", counting)
        angles = [-19.0, -18.0, -17.0, -16.0, -15.0, -14.0]
        with pytest.raises(ValueError, match="receiver at -15 degrees, 5 m stands at the transmitter"):
            scan_power_pattern(sc, RisConfig.zeros(8, 8), angles, range_m=5.0)
        assert scored == [3, 1]

    def test_probe_at_the_transmitter_first_in_its_chunk(self, monkeypatch):
        # The fourth probe stands at the transmitter: the first chunk of
        # three is scored, and the failing chunk yields nothing.
        sc = los_scenario()
        set_chunk_probes(monkeypatch, sc, 3)
        scored = []

        def counting(*args):
            y = received_signal(*args)
            scored.append(y.size)
            return y

        monkeypatch.setattr(codebook, "received_signal", counting)
        angles = [-18.0, -17.0, -16.0, -15.0, -14.0]
        with pytest.raises(ValueError, match="^receiver at -15 degrees, 5 m stands at the transmitter$"):
            scan_power_pattern(sc, RisConfig.zeros(8, 8), angles, range_m=5)
        assert scored == [3]

    def test_first_non_finite_probe_named_across_chunks(self, monkeypatch):
        # Probes 7 and 9 (of chunks of three) receive NaN; the error names
        # probe 7's angle.
        sc = los_scenario()
        set_chunk_probes(monkeypatch, sc, 3)
        seen = []

        def poisoned(*args):
            y = received_signal(*args)
            rows = y.reshape(-1, y.shape[-1])
            for i in range(len(rows)):
                if len(seen) in (7, 9):
                    rows[i] = np.nan
                seen.append(i)
            return y

        monkeypatch.setattr(codebook, "received_signal", poisoned)
        angles = [float(a) for a in range(0, 60, 5)]
        with pytest.raises(ValueError, match="the probe at 35 degrees receives a non-finite signal"):
            scan_power_pattern(sc, RisConfig.zeros(8, 8), angles)


def set_chunk_probes(monkeypatch, scenario, per_chunk):
    """Bound the scan's chunks to `per_chunk` probes, by the bytes of their
    longer rows, steering rows on `scenario`'s panel or links on its
    subcarriers (None keeps the default bound)."""
    if per_chunk is not None:
        row = max(scenario.ris.num_elements, scenario.tx_signal().num_subcarriers)
        monkeypatch.setattr(channel, "PROBE_CHUNK_BYTES", per_chunk * row * 16)


def per_probe_scan(scenario, config, angles, range_m=None):
    """The scan one probe at a time: each probe's single-ray links from
    `_direct_link` and `_panel_link`, and one receive equation per probe.
    The reference the chunked scan stays within `SCAN_RTOL` of."""
    range_m = scenario.sector_grid.user_range_m if range_m is None else range_m
    params = replace(scenario.channel, num_paths=1)
    tx_sig = scenario.tx_signal()
    f, x = tx_sig.freqs, tx_sig.symbols
    phi = reflection_coefficients(scenario.element_model, f)
    on = config.bits.astype(float)
    g = _panel_link(scenario.tx, params, f, scenario.ris, _LINK_TX_RIS)
    beam = _tx_beam(scenario.tx)
    pattern = []
    for angle in angles:
        probe = Placement(angle, range_m)
        h_d = _direct_link(scenario.tx, probe, params, f, beam)
        w = _panel_link(probe, params, f, scenario.ris, _LINK_RIS_NODE) * g
        y = received_signal(h_d, phi, w.sum(axis=1), w @ on, x)
        pattern.append((float(angle), float((np.abs(y) ** 2).sum())))
    return pattern


#: Largest relative difference of a chunked scan's power from the one-probe
#: scan's: the chunk sums each probe's cascades as its factors' matrix
#: products, the one-probe scan as a sum over its (K, M) cascades.
SCAN_RTOL = 1e-13


def assert_scan_close(chunked, reference):
    assert [a for a, _ in chunked] == [a for a, _ in reference]
    got, want = np.array([p for _, p in chunked]), np.array([p for _, p in reference])
    assert np.all(np.abs(got - want) <= SCAN_RTOL * want)


#: 22 angles: chunks of 3 and of 7 both end in a lone probe.
PARITY_ANGLES = [-90.0, -71.3, -45.0, -30.05, -15.5, -0.0, 0.0, 0.1, 7.0, 14.9, 15.0, 15.1,
                 22.2, 30.0, 37.5, 41.5, 45.0, 52.0, 63.0, 75.0, 89.9, 90.0]


class TestChunkedScanParity:
    @pytest.mark.parametrize(
        "tx_mode, model, per_chunk, side, num_rb, angles",
        [
            pytest.param(tx_mode, model, per_chunk, 8, 2, PARITY_ANGLES, id=f"{tx_mode}-{name}-{per_chunk}")
            for tx_mode in ("tone", "prs")
            for name, model in (("ideal", ElementModel()), ("lorentzian", LORENTZIAN))
            for per_chunk in (None, 1, 3, 7)
        ]
        # The wideband benchmark's scan: a 32x32 panel on the 312 occupied
        # subcarriers of a 52-block comb grid, 61 angles in one chunk.
        + [pytest.param("prs", ElementModel(), None, 32, 52, [-60.0 + 2.0 * i for i in range(61)], id="bench")],
    )
    def test_powers_equal_the_per_probe_scan(self, monkeypatch, tx_mode, model, per_chunk, side, num_rb, angles):
        sc = replace(
            scenario_8x8(seed=6),
            ris=RisArrayGeometry(n_v=side, n_h=side, tile_rows=side // 2, tile_cols=side // 2),
            tx_mode=tx_mode,
            num_rb=num_rb,
            element_model=model,
        )
        config = RisConfig(np.random.default_rng(3).integers(0, 2, side * side), side, side)
        set_chunk_probes(monkeypatch, sc, per_chunk)
        chunked = scan_power_pattern(sc, config, angles)
        assert_scan_close(chunked, per_probe_scan(sc, config, angles))

    @pytest.mark.parametrize(
        "tx_mode, side, num_rb, per_chunk, num_angles, sizes",
        [
            ("tone", 32, 4, None, 130, [64, 64, 2]),
            ("tone", 32, 4, 3, 130, [3] * 43 + [1]),
            ("prs", 32, 4, None, 130, [64, 64, 2]),
            ("prs", 32, 4, 3, 130, [3] * 43 + [1]),
            # A 2x2 panel on the 312 subcarriers of a 52-block comb grid:
            # the links, not the steering rows, set the chunk.
            ("prs", 2, 52, None, 1801, [210] * 8 + [121]),
        ],
    )
    def test_chunks_hold_factors_within_the_bound(self, monkeypatch, tx_mode, side, num_rb, per_chunk, num_angles, sizes):
        # No chunk holds an (A, K, M) link, and each of its arrays fits the
        # bound whatever the number of subcarriers and elements.
        sc = replace(
            scenario_8x8(seed=2),
            ris=RisArrayGeometry(n_v=side, n_h=side, tile_rows=side // 2, tile_cols=side // 2),
            tx_mode=tx_mode,
            num_rb=num_rb,
        )
        set_chunk_probes(monkeypatch, sc, per_chunk)
        k = sc.tx_signal().num_subcarriers
        chunks_seen = []

        def recording(*args):
            g, chunks = channel.probe_links(*args)

            def recorded():
                for chunk in chunks:
                    chunks_seen.append(chunk)
                    yield chunk

            return g, recorded()

        monkeypatch.setattr(codebook, "probe_links", recording)
        angles = [-90.0 + 180.0 * i / (num_angles - 1) for i in range(num_angles)]
        scan_power_pattern(sc, RisConfig.zeros(side, side), angles)
        assert [len(amp) for _, amp, _, _ in chunks_seen] == sizes
        for h_d, amp, delay, steering in chunks_seen:
            a = len(amp)
            assert h_d.shape == delay.shape == (a, k) and steering.shape == (a, side * side)
            assert all(x.nbytes <= channel.PROBE_CHUNK_BYTES for x in (h_d, amp, delay, steering))

    @pytest.mark.parametrize("per_chunk", [None, 1, 3])
    def test_one_element_panel(self, monkeypatch, per_chunk):
        # A 1x1 panel on one tone: every product of a lone probe has one
        # element. A loop that rounds otherwise shows at about one angle
        # in 250, hence the fine grid.
        sc = Scenario(
            ris=RisArrayGeometry(n_v=1, n_h=1, tile_rows=1, tile_cols=1),
            channel=ChannelParams(rng_seed=2),
            element_model=LORENTZIAN,
        )
        config = RisConfig(np.array([1]), 1, 1)
        angles = [-90.0 + 0.1 * i for i in range(1801)]
        set_chunk_probes(monkeypatch, sc, per_chunk)
        chunked = scan_power_pattern(sc, config, angles)
        assert chunked == per_probe_scan(sc, config, angles)

    def test_cli_scan_writes_the_per_probe_rows(self, tmp_path):
        # pattern-scan --bits at 0.1 degrees on a 4x4 tone scenario: 1801
        # probes in one chunk of the default bound.
        sc = Scenario(
            ris=RisArrayGeometry(n_v=4, n_h=4, tile_rows=2, tile_cols=2),
            channel=ChannelParams(rng_seed=5),
            element_model=LORENTZIAN,
        )
        sc.save(tmp_path / "scenario.json")
        bits = "0110100111000101"
        rc = main([
            "pattern-scan", "--scenario", str(tmp_path / "scenario.json"), "--out", str(tmp_path),
            "--bits", bits, "--step", "0.1",
        ])
        assert rc == EXIT_OK
        angles = ExperimentSpec(mode="pattern_scan", scan_step_deg=0.1).scan_angles()
        assert len(angles) == 1801
        rows = [
            [f"{angle:g}", f"{power:.6e}", _fmt_db(to_db(power)) if power > 0 else "-inf"]
            for angle, power in per_probe_scan(sc, RisConfig.from_bitstring(bits, 4, 4), angles)
        ]
        expected = _csv_text("power-pattern-v1", ["angle_deg", "power", "power_db"], rows)
        assert (tmp_path / "power_pattern.csv").read_text() == expected


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
