import math

import numpy as np
import pytest

from helpers import dense_receive, model_instance, panel, score
from ris_pls.channel import ChannelParams, ChannelSet, LinkTable, Placement
from ris_pls.ofdm import Numerology, TxSignal, build_prs_grid, prs_signal
from ris_pls.optimize import EvaluatorBatch, algorithm1, channel_powers
from ris_pls.ris import ElementModel, RisArrayGeometry, RisConfig
from ris_pls.secrecy import (
    LinkPowers,
    from_db,
    link_powers,
    sum_sse,
    to_db,
)

CARRIER = 3.55e9


def channels(h_d_lu, h_d_ed, h_lu=None, h_ed=None, g=None, k=1, m=1):
    zero = np.zeros((k, m), dtype=complex)
    return ChannelSet(
        freqs=np.full(k, CARRIER),
        h_d_lu=np.broadcast_to(np.asarray(h_d_lu, complex), (k,)).copy(),
        h_d_ed=np.broadcast_to(np.asarray(h_d_ed, complex), (k,)).copy(),
        h_ris_lu=zero.copy() if h_lu is None else np.asarray(h_lu, complex).reshape(k, m),
        h_ris_ed=zero.copy() if h_ed is None else np.asarray(h_ed, complex).reshape(k, m),
        g_ris=zero.copy() if g is None else np.asarray(g, complex).reshape(k, m),
    )


def unit_tx(k=1, symbols=None):
    return TxSignal(
        mode="tone" if k == 1 else "prs",
        freqs=np.full(k, CARRIER),
        symbols=np.ones(k, complex) if symbols is None else np.asarray(symbols, complex),
    )


def evaluator(ch, tx=None):
    """A batch of one under the ideal element model, whose bit 0 reflects +1."""
    return EvaluatorBatch([ch], ElementModel(), unit_tx(ch.num_subcarriers) if tx is None else tx)


def zeros(ch):
    return np.zeros(ch.num_elements, dtype=np.uint8)


class TestDbHelpers:
    def test_round_trip(self):
        for p in (1e-9, 0.25, 3.0, 1e6):
            assert from_db(to_db(p)) == pytest.approx(p, rel=1e-12)

    def test_zero_power_maps_to_minus_inf(self):
        assert to_db(0.0) == float("-inf")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            to_db(-1.0)

    def test_link_powers_accessors(self):
        p = LinkPowers(2.0, 0.5)
        assert p.lu_db == pytest.approx(10 * math.log10(2.0), abs=1e-12)
        assert p.ed_db == pytest.approx(10 * math.log10(0.5), abs=1e-12)
        with pytest.raises(ValueError):
            LinkPowers(-1.0, 1.0)


class TestLinkPowers:
    def test_unit_cascade(self):
        ch = channels(0.0, 0.0, h_lu=[[1.0]], h_ed=[[0.0]], g=[[1.0]])
        assert link_powers(evaluator(ch).powers(zeros(ch))[0]).p_lu == pytest.approx(1.0, rel=1e-15)

    def test_scaling_x_quadruples_power(self):
        ch = channels(1.0, 1.0)
        base = link_powers(evaluator(ch).powers(zeros(ch))[0]).p_lu
        doubled = link_powers(evaluator(ch, unit_tx(symbols=[2.0])).powers(zeros(ch))[0]).p_lu
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct_evaluation(self, seed):
        # Independent oracle: per-subcarrier scalar |h_d + sum h phi g|^2 |x|^2.
        rng = np.random.default_rng(seed)
        k, m = 3, 4

        def c(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        h_d, h, g, x = c(k), c(k, m), c(k, m), c(k)
        ch = channels(0, 0, h_lu=h, h_ed=h, g=g, k=k, m=m)
        ch.h_d_lu = h_d
        ch.h_d_ed = h_d.copy()
        model = ElementModel(phase_at_center=(0.3, 2.9), amplitude=0.8)
        bits = rng.integers(0, 2, m, dtype=np.uint8)
        phi = model.amplitude * np.exp(1j * model.phase_curves(ch.freqs))[:, bits]
        expected = 0.0
        for v in range(k):
            eff = h_d[v]
            for i in range(m):
                eff += h[v, i] * phi[v, i] * g[v, i]
            expected += abs(eff * x[v]) ** 2
        got = link_powers(EvaluatorBatch([ch], model, unit_tx(k, symbols=x)).powers(bits)[0])
        assert got.p_lu == pytest.approx(expected, rel=1e-12)
        assert got.p_ed == pytest.approx(expected, rel=1e-12)

    def test_only_occupied_bins_counted(self):
        # prs_signal drops the unoccupied bins: the powers equal the dense
        # full-grid sum over the occupied bins alone.
        grid = build_prs_grid(Numerology(), num_rb=2, seed=5)
        sig = prs_signal(grid)
        assert sig.num_subcarriers == int(grid.occupied_mask.sum()) < grid.num_subcarriers
        full = TxSignal(
            mode="prs",
            freqs=grid.subcarrier_freqs(),
            symbols=grid.symbols[:, 0],
        )
        tx, lu, ed = Placement(-15.0, 5.0), Placement(0.0, 7.0), Placement(30.0, 7.0)
        params, ris = ChannelParams(rng_seed=5), panel(3, 4)
        model = ElementModel(mode="lorentzian", resonance_hz=3.551e9, quality_factor=30.0)
        config = RisConfig(np.random.default_rng(5).integers(0, 2, 12), 3, 4)
        dense_ch = LinkTable(tx, ris, params, full.freqs).channels(lu, ed)
        y_lu, y_ed = dense_receive(dense_ch, model, config, full)
        ev = EvaluatorBatch([LinkTable(tx, ris, params, sig.freqs).channels(lu, ed)], model, sig)
        powers = link_powers(ev.powers(config.bits)[0])
        mask = grid.occupied_mask
        assert powers.p_lu == pytest.approx((np.abs(y_lu[mask]) ** 2).sum(), rel=1e-11, abs=0)
        assert powers.p_ed == pytest.approx((np.abs(y_ed[mask]) ** 2).sum(), rel=1e-11, abs=0)

    def test_p_lu_equals_lu_power_objective(self):
        channels_, sig = model_instance(3, 3, 4, waveform="prs")
        ev = EvaluatorBatch([channels_], ElementModel(), sig)
        for bits in np.random.default_rng(0).integers(0, 2, size=(5, 12), dtype=np.uint8):
            powers = link_powers(ev.powers(bits)[0])
            assert powers.p_lu == score(ev, "lu_power_max", bits)
            assert powers.p_ed == score(ev, "ed_power_min", bits)


class TestEvaluatorFrequencies:
    def test_same_count_at_other_frequencies_rejected(self):
        ch = channels(1.0, 1.0, k=2)
        tx = unit_tx(2)
        tx.freqs = tx.freqs + np.array([0.0, 60e3])
        with pytest.raises(ValueError, match="frequencies"):
            evaluator(ch, tx)

    def test_full_grid_channels_rejected_for_prs_signal(self):
        grid = build_prs_grid(Numerology(), num_rb=2, seed=0)
        tx, lu, ed = Placement(-15.0, 5.0), Placement(0.0, 7.0), Placement(30.0, 7.0)
        ch = LinkTable(tx, panel(2, 2), ChannelParams(), grid.subcarrier_freqs()).channels(lu, ed)
        with pytest.raises(ValueError, match="frequencies"):
            EvaluatorBatch([ch], ElementModel(), prs_signal(grid))


class TestRatioObjective:
    def ratio(self, ch):
        return score(evaluator(ch), "ratio", zeros(ch))

    def test_identical_links_give_unity(self):
        assert self.ratio(channels(0.7 + 0.2j, 0.7 + 0.2j)) == pytest.approx(1.0, rel=1e-15)

    def test_four_over_two(self):
        assert self.ratio(channels(2.0, math.sqrt(2.0))) == pytest.approx(2.0, rel=1e-12)

    def test_equals_power_quotient(self):
        rng = np.random.default_rng(42)
        ch = channels(
            rng.standard_normal() + 1j * rng.standard_normal(),
            rng.standard_normal() + 1j * rng.standard_normal(),
        )
        powers = link_powers(evaluator(ch).powers(zeros(ch))[0])
        assert self.ratio(ch) == powers.p_lu / powers.p_ed

    def test_zero_ed_power_is_infinite(self):
        assert self.ratio(channels(1.0, 0.0)) == math.inf

    def test_both_powers_zero_is_nan(self):
        assert math.isnan(self.ratio(channels(0.0, 0.0)))


class TestSumSse:
    def test_snr_three_vs_one(self):
        # Closed form: log2(4) - log2(2) = 1 bit/s/Hz.
        ch = channels(math.sqrt(3.0), 1.0)
        report = sum_sse(evaluator(ch).powers(zeros(ch))[0], n0=1.0)
        assert report.r_sec_raw == pytest.approx(1.0, abs=1e-12)
        assert report.r_lu == pytest.approx(2.0, abs=1e-12)
        assert report.r_ed == pytest.approx(1.0, abs=1e-12)

    def test_two_subcarriers_sum(self):
        ch = channels(math.sqrt(3.0), 1.0, k=2)
        report = sum_sse(evaluator(ch).powers(zeros(ch))[0], n0=1.0)
        assert report.r_sec_raw == pytest.approx(2.0, abs=1e-12)
        assert report.per_subcarrier_mean == pytest.approx(1.0, abs=1e-12)

    def test_identical_channels_zero_sse(self):
        ch = channels(0.9, 0.9)
        report = sum_sse(evaluator(ch).powers(zeros(ch))[0], n0=0.5)
        assert report.r_sec == 0.0
        assert report.r_sec_raw == 0.0

    def test_clamp_relation_holds(self):
        ch = channels(1.0, 2.0)  # eavesdropper stronger: raw < 0
        report = sum_sse(evaluator(ch).powers(zeros(ch))[0], n0=1.0)
        assert report.r_sec_raw < 0
        assert report.r_sec == 0.0

    def test_monotone_in_lu_power(self):
        previous = -math.inf
        for a in (0.5, 1.0, 2.0, 4.0):
            ch = channels(a, 1.0)
            raw = sum_sse(evaluator(ch).powers(zeros(ch))[0], n0=1.0).r_sec_raw
            assert raw > previous
            previous = raw

    def test_high_snr_insensitive_to_n0(self):
        # Per-subcarrier SNRs above 1e3: doubling n0 changes the raw sum by
        # less than 0.01 per subcarrier.
        k = 3
        ch = channels(100.0, 50.0, k=k)
        n0 = 1.0
        a = sum_sse(evaluator(ch).powers(zeros(ch))[0], n0=n0).r_sec_raw
        b = sum_sse(evaluator(ch).powers(zeros(ch))[0], n0=2 * n0).r_sec_raw
        assert abs(a - b) < 0.01 * k

    @pytest.mark.parametrize("k", [1, 4])
    def test_num_occupied_is_subcarrier_count(self, k):
        ch = channels(2.0, 1.0, k=k)
        report = sum_sse(evaluator(ch).powers(zeros(ch))[0], n0=1.0)
        assert report.num_occupied == k
        assert report.r_sec_raw == pytest.approx(k * (math.log2(5.0) - 1.0))
        assert report.per_subcarrier_mean == pytest.approx(math.log2(5.0) - 1.0)

    def test_nonpositive_n0_rejected(self):
        ch = channels(1.0, 1.0)
        with pytest.raises(ValueError):
            sum_sse(evaluator(ch).powers(zeros(ch))[0], n0=0.0)

    def test_serialization_fields(self):
        # The keys in their written order; the headline `sse` is the raw
        # difference, never the clamped one.
        ch = channels(1.0, 2.0)  # eavesdropper stronger: raw < 0
        data = sum_sse(evaluator(ch).powers(zeros(ch))[0], n0=1.0).to_dict()
        assert list(data) == [
            "r_lu", "r_ed", "r_sec_raw", "r_sec", "sse", "headline_clamped", "n0", "num_occupied", "per_subcarrier_mean"
        ]
        assert data["sse"] == data["r_sec_raw"] < 0
        assert data["headline_clamped"] is False
        assert data["num_occupied"] == 1


def dense_powers(ch, model, sig, config):
    """Per-subcarrier powers from the dense receive path: the independent
    check of the evaluator's sums."""
    y_lu, y_ed = dense_receive(ch, model, config, sig)
    return np.abs(y_lu) ** 2, np.abs(y_ed) ** 2


class TestDenseReceiveParity:
    """Reports read their powers from the evaluator's sums; they must match
    the dense direct sum of `helpers.dense_receive`."""

    @pytest.mark.parametrize(
        "model",
        [ElementModel(), ElementModel(mode="lorentzian", resonance_hz=3.551e9, quality_factor=30.0)],
        ids=["ideal", "lorentzian"],
    )
    @pytest.mark.parametrize("waveform", ["tone", "prs"])
    def test_reports_match_dense_sum(self, waveform, model):
        for seed in range(4):
            ch, sig = model_instance(seed, 4, 6, waveform=waveform)
            configs = [RisConfig(b, 4, 6) for b in np.random.default_rng(seed).integers(0, 2, (4, 24))]
            configs.append(algorithm1(ch, model, sig, panel(4, 6)).final_config)
            ev = EvaluatorBatch([ch], model, sig)
            for config in configs:
                p_lu, p_ed = dense_powers(ch, model, sig, config)
                n0 = float(p_lu.mean())
                p = ev.powers(config.bits)[0]
                powers, report = link_powers(p), sum_sse(p, n0)
                assert powers.p_lu == pytest.approx(p_lu.sum(), rel=1e-11, abs=0)
                assert powers.p_ed == pytest.approx(p_ed.sum(), rel=1e-11, abs=0)
                r_lu = np.log2(1.0 + p_lu / n0).sum()
                r_ed = np.log2(1.0 + p_ed / n0).sum()
                assert report.r_lu == pytest.approx(r_lu, rel=1e-11, abs=0)
                assert report.r_ed == pytest.approx(r_ed, rel=1e-11, abs=0)


class TestChannelPowers:
    """Reports read one configuration straight from the channel set
    (`optimize.channel_powers`); sweeps read it from their batch
    (`EvaluatorBatch.powers`)."""

    @pytest.mark.parametrize(
        "model",
        [ElementModel(), ElementModel(mode="lorentzian", resonance_hz=3.551e9, quality_factor=30.0)],
        ids=["ideal", "lorentzian"],
    )
    @pytest.mark.parametrize("waveform", ["tone", "prs"])
    def test_matches_dense_sum(self, waveform, model):
        for seed in range(4):
            ch, sig = model_instance(seed, 4, 6, waveform=waveform)
            for bits in np.random.default_rng(seed).integers(0, 2, (4, 24)):
                p_lu, p_ed = dense_powers(ch, model, sig, RisConfig(bits, 4, 6))
                p = channel_powers(ch, model, sig, bits)
                assert p.shape == (2, sig.num_subcarriers)
                np.testing.assert_allclose(p, [p_lu, p_ed], rtol=1e-11, atol=0)

    def test_matches_batch_powers_on_a_wideband_pair(self):
        # The benchmark's freq-selectivity pair: a lorentzian element on the
        # 312 occupied subcarriers of a 52-block comb grid, 32x32 panel. The
        # matrix-vector sums run in another order, so the powers differ in
        # their last bits: 1.4e-13 relative per subcarrier at most here, and
        # 4.6e-13 on the benchmark's seed-0 pairs.
        model = ElementModel(mode="lorentzian", resonance_hz=3.55e9, quality_factor=50.0)
        geometry = RisArrayGeometry(n_v=32, n_h=32, tile_rows=16, tile_cols=16)
        sig = prs_signal(build_prs_grid(Numerology(), num_rb=52, seed=0, center_freq_hz=CARRIER))
        tx, lu, ed = Placement(-15.0, 5.0), Placement(30.0, 7.0), Placement(15.0, 7.0)
        ch = LinkTable(tx, geometry, ChannelParams(), sig.freqs).channels(lu, ed)
        ev = EvaluatorBatch([ch], model, sig)
        for bits in np.random.default_rng(0).integers(0, 2, (8, 1024)).astype(np.uint8):
            p, ref = channel_powers(ch, model, sig, bits), ev.powers(bits)[0]
            assert np.all(np.abs(p - ref) <= 1e-11 * ref)
        zeros = np.zeros(1024, dtype=np.uint8)
        assert channel_powers(ch, model, sig, zeros).tobytes() == ev.powers(zeros)[0].tobytes()

    def test_frequencies_must_match(self):
        ch, sig = model_instance(0, 2, 2, waveform="prs")
        other = TxSignal(mode="prs", freqs=sig.freqs + 1.0, symbols=sig.symbols)
        with pytest.raises(ValueError, match="disagree on subcarrier frequencies"):
            channel_powers(ch, ElementModel(), other, np.zeros(4, dtype=np.uint8))
