import numpy as np
import pytest

from ris_pls.channel import ChannelParams, Placement
from ris_pls.ofdm import MAX_NUM_RB
from ris_pls.optimize import PowerEvaluator
from ris_pls.ris import RisArrayGeometry, RisConfig
from ris_pls.scenario import Scenario
from ris_pls.secrecy import link_powers, to_db


def small_scenario(**kwargs):
    defaults = dict(
        ris=RisArrayGeometry(n_v=4, n_h=4, tile_rows=2, tile_cols=2),
        channel=ChannelParams(rng_seed=1),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestRoundTrip:
    def test_dict_round_trip(self):
        sc = small_scenario()
        back = Scenario.from_dict(sc.to_dict())
        assert back.to_dict() == sc.to_dict()

    def test_file_round_trip(self, tmp_path):
        sc = small_scenario(tx_mode="prs", num_rb=4)
        path = tmp_path / "scenario.json"
        sc.save(path)
        assert Scenario.load(path).to_dict() == sc.to_dict()

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"tx": {"azimuth_deg": 0.0}})


class TestDigest:
    def test_digest_is_stable(self):
        assert small_scenario().digest() == small_scenario().digest()

    def test_digest_tracks_content(self):
        a = small_scenario()
        b = small_scenario(channel=ChannelParams(rng_seed=2))
        assert a.digest() != b.digest()

    def test_with_seed_changes_digest_only_via_seed(self):
        a = small_scenario()
        b = a.with_seed(99)
        assert b.seed == 99
        assert a.digest() != b.digest()
        assert b.with_seed(a.seed).digest() == a.digest()


class TestSignals:
    def test_tone_signal_single_bin(self):
        sig = small_scenario().tx_signal()
        assert sig.mode == "tone"
        assert sig.num_subcarriers == 1

    def test_prs_signal_covers_grid(self):
        sc = small_scenario(tx_mode="prs", num_rb=4)
        sig = sc.tx_signal()
        assert sig.mode == "prs"
        assert sig.num_subcarriers == 24
        np.testing.assert_array_equal(sig.freqs, sc.prs_grid().subcarrier_freqs()[::2])

    def test_channels_match_tx_freqs(self):
        sc = small_scenario()
        ch = sc.channels_for(sc.placement(0.0), sc.placement(15.0))
        assert ch.num_subcarriers == 1
        assert ch.num_elements == 16


class TestNoiseCalibration:
    def test_uniform_reference_snr_is_target(self):
        sc = small_scenario()
        n0 = sc.noise_power()
        sig = sc.tx_signal()
        ch = sc.channels_for(Placement(0.0, 7.0), Placement(15.0, 7.0), sig.freqs)
        ev = PowerEvaluator(ch, sc.element_model, sig)
        per_bin = link_powers(ev.bin_powers(RisConfig.zeros(4, 4).bits)).p_lu / sig.num_subcarriers
        assert to_db(per_bin / n0) == pytest.approx(10.0, abs=1e-9)

    def test_explicit_n0_wins(self):
        sc = small_scenario(n0=1e-12)
        assert sc.noise_power() == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            small_scenario(n0=0.0)
        with pytest.raises(ValueError):
            small_scenario(tx_mode="chirp")

    def test_resource_blocks_bounded_by_a_carrier(self):
        assert small_scenario(tx_mode="prs", num_rb=MAX_NUM_RB).tx_signal().num_subcarriers == 1650
        for num_rb in (0, MAX_NUM_RB + 1):
            with pytest.raises(ValueError, match="num_rb"):
                small_scenario(num_rb=num_rb)
