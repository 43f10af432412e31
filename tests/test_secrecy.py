import math

import numpy as np
import pytest

from ris_pls.channel import ChannelSet
from ris_pls.ofdm import TxSignal
from ris_pls.optimize import PowerEvaluator
from ris_pls.ris import ElementModel, RisResponse
from ris_pls.secrecy import (
    LinkPowers,
    from_db,
    link_powers,
    power_ratio,
    powers_and_sse,
    received_power,
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


def identity_response(k=1, m=1):
    return RisResponse(np.ones((k, m), dtype=complex), np.full(k, CARRIER))


def unit_tx(k=1, symbols=None, power_scale=1.0):
    return TxSignal(
        mode="tone" if k == 1 else "prs",
        freqs=np.full(k, CARRIER),
        symbols=np.ones(k, complex) if symbols is None else np.asarray(symbols, complex),
        occupied_mask=np.ones(k, bool),
        power_scale=power_scale,
    )


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


class TestReceivedPower:
    def test_unit_cascade(self):
        ch = channels(0.0, 0.0, h_lu=[[1.0]], h_ed=[[0.0]], g=[[1.0]])
        assert received_power(ch, identity_response(), unit_tx(), "lu") == pytest.approx(1.0, rel=1e-15)

    def test_scaling_x_quadruples_power(self):
        ch = channels(1.0, 1.0)
        base = received_power(ch, identity_response(), unit_tx(), "lu")
        doubled = received_power(ch, identity_response(), unit_tx(symbols=[2.0]), "lu")
        scaled = received_power(ch, identity_response(), unit_tx(power_scale=4.0), "lu")
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct_evaluation(self, seed):
        # Independent oracle: per-subcarrier scalar |h_d + sum h phi g|^2 |x|^2.
        rng = np.random.default_rng(seed)
        k, m = 3, 4

        def c(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        h_d, h, g, phi, x = c(k), c(k, m), c(k, m), c(k, m), c(k)
        ch = channels(0, 0, h_lu=h, h_ed=h, g=g, k=k, m=m)
        ch.h_d_lu = h_d
        ch.h_d_ed = h_d.copy()
        tx = unit_tx(k, symbols=x)
        resp = RisResponse(phi, np.full(k, CARRIER))
        expected = 0.0
        for v in range(k):
            eff = h_d[v]
            for i in range(m):
                eff += h[v, i] * phi[v, i] * g[v, i]
            expected += abs(eff * x[v]) ** 2
        got = received_power(ch, resp, tx, "lu")
        assert got == pytest.approx(expected, rel=1e-12)

    def test_user_argument_validated(self):
        ch = channels(1.0, 1.0)
        with pytest.raises(ValueError):
            received_power(ch, identity_response(), unit_tx(), "mallory")

    def test_only_occupied_bins_counted(self):
        ch = channels(1.0, 1.0, k=4)
        tx = TxSignal(
            mode="prs",
            freqs=np.full(4, CARRIER),
            symbols=np.ones(4, complex),
            occupied_mask=np.array([True, False, True, False]),
        )
        assert received_power(ch, identity_response(4, 1), tx, "lu") == pytest.approx(2.0, rel=1e-12)


class TestPowerRatio:
    def test_identical_links_give_unity(self):
        ch = channels(0.7 + 0.2j, 0.7 + 0.2j)
        assert power_ratio(ch, identity_response(), unit_tx()) == pytest.approx(1.0, rel=1e-15)

    def test_four_over_two(self):
        ch = channels(2.0, math.sqrt(2.0))
        assert power_ratio(ch, identity_response(), unit_tx()) == pytest.approx(2.0, rel=1e-12)

    def test_equals_power_quotient(self):
        rng = np.random.default_rng(42)
        ch = channels(
            rng.standard_normal() + 1j * rng.standard_normal(),
            rng.standard_normal() + 1j * rng.standard_normal(),
        )
        resp = identity_response()
        tx = unit_tx()
        expected = received_power(ch, resp, tx, "lu") / received_power(ch, resp, tx, "ed")
        assert power_ratio(ch, resp, tx) == expected

    def test_zero_ed_power_is_infinite(self):
        ch = channels(1.0, 0.0)
        assert power_ratio(ch, identity_response(), unit_tx()) == math.inf

    def test_both_powers_zero_is_nan(self):
        ch = channels(0.0, 0.0)
        assert math.isnan(power_ratio(ch, identity_response(), unit_tx()))

    @pytest.mark.parametrize("h_lu, h_ed", [(1.0, 0.0), (0.0, 0.0), (0.3 + 0.4j, 1.2)])
    def test_matches_optimizer_evaluator(self, h_lu, h_ed):
        ch = channels(h_lu, h_ed)
        ev = PowerEvaluator(ch, ElementModel(), unit_tx())
        expected = ev.ratio(np.zeros(ch.num_elements, dtype=np.uint8))
        got = power_ratio(ch, identity_response(), unit_tx())
        assert got == expected or (math.isnan(got) and math.isnan(expected))


class TestSumSse:
    def test_snr_three_vs_one(self):
        # Closed form: log2(4) - log2(2) = 1 bit/s/Hz.
        ch = channels(math.sqrt(3.0), 1.0)
        report = sum_sse(ch, identity_response(), unit_tx(), n0=1.0)
        assert report.r_sec_raw == pytest.approx(1.0, abs=1e-12)
        assert report.r_lu == pytest.approx(2.0, abs=1e-12)
        assert report.r_ed == pytest.approx(1.0, abs=1e-12)

    def test_two_subcarriers_sum(self):
        ch = channels(math.sqrt(3.0), 1.0, k=2)
        report = sum_sse(ch, identity_response(2, 1), unit_tx(2), n0=1.0)
        assert report.r_sec_raw == pytest.approx(2.0, abs=1e-12)
        assert report.per_subcarrier_mean == pytest.approx(1.0, abs=1e-12)

    def test_identical_channels_zero_sse(self):
        ch = channels(0.9, 0.9)
        report = sum_sse(ch, identity_response(), unit_tx(), n0=0.5, apply_max=True)
        assert report.r_sec == 0.0
        assert report.r_sec_raw == 0.0
        assert report.value == 0.0

    def test_clamp_relation_holds(self):
        ch = channels(1.0, 2.0)  # eavesdropper stronger: raw < 0
        report = sum_sse(ch, identity_response(), unit_tx(), n0=1.0)
        assert report.r_sec_raw < 0
        assert report.r_sec == 0.0
        assert report.value == report.r_sec_raw  # raw headline by default
        clamped = sum_sse(ch, identity_response(), unit_tx(), n0=1.0, apply_max=True)
        assert clamped.value == 0.0

    def test_monotone_in_lu_power(self):
        previous = -math.inf
        for a in (0.5, 1.0, 2.0, 4.0):
            ch = channels(a, 1.0)
            raw = sum_sse(ch, identity_response(), unit_tx(), n0=1.0).r_sec_raw
            assert raw > previous
            previous = raw

    def test_high_snr_insensitive_to_n0(self):
        # Per-subcarrier SNRs above 1e3: doubling n0 changes the raw sum by
        # less than 0.01 per subcarrier.
        k = 3
        ch = channels(100.0, 50.0, k=k)
        n0 = 1.0
        a = sum_sse(ch, identity_response(k, 1), unit_tx(k), n0=n0).r_sec_raw
        b = sum_sse(ch, identity_response(k, 1), unit_tx(k), n0=2 * n0).r_sec_raw
        assert abs(a - b) < 0.01 * k

    def test_per_subcarrier_detail(self):
        ch = channels(math.sqrt(3.0), 1.0, k=2)
        report = sum_sse(ch, identity_response(2, 1), unit_tx(2), n0=1.0, per_subcarrier=True)
        assert len(report.per_subcarrier) == 2
        v, r_l, r_e = report.per_subcarrier[0]
        assert (v, r_l, r_e) == (0, pytest.approx(2.0), pytest.approx(1.0))

    def test_nonpositive_n0_rejected(self):
        ch = channels(1.0, 1.0)
        with pytest.raises(ValueError):
            sum_sse(ch, identity_response(), unit_tx(), n0=0.0)

    def test_serialization_fields(self):
        ch = channels(math.sqrt(3.0), 1.0)
        data = sum_sse(ch, identity_response(), unit_tx(), n0=1.0).to_dict()
        assert data["sse"] == data["r_sec_raw"]
        assert data["num_occupied"] == 1

    def test_per_subcarrier_csv(self, tmp_path):
        ch = channels(math.sqrt(3.0), 1.0, k=2)
        report = sum_sse(ch, identity_response(2, 1), unit_tx(2), n0=1.0, per_subcarrier=True)
        path = tmp_path / "sse.csv"
        report.save_per_subcarrier_csv(path)
        lines = path.read_text().splitlines()
        assert lines[1] == "subcarrier,r_lu,r_ed"
        assert len(lines) == 2 + 2
        v, r_l, r_e = lines[2].split(",")
        assert float(r_l) == pytest.approx(2.0, abs=1e-12)
        bare = sum_sse(ch, identity_response(2, 1), unit_tx(2), n0=1.0)
        with pytest.raises(ValueError):
            bare.save_per_subcarrier_csv(path)


class TestPowersAndSse:
    def test_equals_separate_reports(self):
        rng = np.random.default_rng(3)
        k, m = 6, 4

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        ch = channels(draw(k), draw(k), draw(k, m), draw(k, m), draw(k, m), k=k, m=m)
        resp = RisResponse(draw(k, m), np.full(k, CARRIER))
        tx = TxSignal(
            mode="prs",
            freqs=np.full(k, CARRIER),
            symbols=draw(k),
            occupied_mask=np.array([True, False, True, True, False, True]),
        )
        powers, report = powers_and_sse(ch, resp, tx, n0=0.3)
        assert powers == link_powers(ch, resp, tx)
        assert report == sum_sse(ch, resp, tx, n0=0.3)

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError):
            powers_and_sse(channels(1.0, 1.0), identity_response(), unit_tx(), n0=0.0)
